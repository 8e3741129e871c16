package plan

import (
	"testing"
	"time"
)

func TestWalkAndLeafAccess(t *testing.T) {
	scanA := &Scan{Access: AccessCSIScan}
	scanB := &Scan{Access: AccessSecondarySeek}
	j := &Join{Strategy: JoinHash, Outer: scanA, Inner: scanB}
	agg := &Agg{Input: j, Strategy: AggHash}
	root := &Root{Input: &Project{Input: agg}}

	var visited int
	Walk(root, func(Node) { visited++ })
	if visited != 6 {
		t.Errorf("visited %d nodes", visited)
	}
	leaves := LeafAccess(root.Input)
	if len(leaves) != 2 || leaves[0] != AccessCSIScan || leaves[1] != AccessSecondarySeek {
		t.Errorf("leaves = %v", leaves)
	}
	Walk(nil, func(Node) { t.Fatal("walk of nil visited a node") })
}

func TestDescribeAndEstimate(t *testing.T) {
	nodes := []Node{
		&Filter{}, &Project{}, &Sort{}, &Top{},
		&Join{Strategy: JoinNestedLoop}, &Join{Strategy: JoinHash},
		&Agg{Strategy: AggHash}, &Agg{Strategy: AggStream}, &Root{},
	}
	for _, n := range nodes {
		if n.Describe() == "" {
			t.Errorf("%T has empty description", n)
		}
	}
	e := Est{Rows: 42, Cost: time.Second}
	r, c := e.Estimate()
	if r != 42 || c != time.Second {
		t.Errorf("estimate = %v %v", r, c)
	}
	for k := AccessHeapScan; k <= AccessCSIScan; k++ {
		if k.String() == "" {
			t.Errorf("access kind %d has no name", k)
		}
	}
}

func TestAggFuncNames(t *testing.T) {
	want := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	for i, w := range want {
		if AggFunc(i).String() != w {
			t.Errorf("AggFunc(%d) = %s", i, AggFunc(i))
		}
	}
}

// TestInputDrained pins the early-stop rule for every node kind, input
// and consumer guarantee: want[i] is {drained when the consumer may stop
// early, drained when the consumer drains}.
func TestInputDrained(t *testing.T) {
	inherit := [2]bool{false, true}
	always := [2]bool{true, true}
	never := [2]bool{false, false}
	cases := []struct {
		n    Node
		want [][2]bool
	}{
		{&Scan{}, nil},
		{&Filter{}, [][2]bool{inherit}},
		{&Project{}, [][2]bool{inherit}},
		{&Root{}, [][2]bool{inherit}},
		{&Agg{Strategy: AggStream}, [][2]bool{inherit}},
		{&Agg{Strategy: AggHash}, [][2]bool{always}},
		{&Sort{}, [][2]bool{always}},
		{&Top{}, [][2]bool{never}},
		{&Join{Strategy: JoinHash}, [][2]bool{always, inherit}},
		{&Join{Strategy: JoinNestedLoop}, [][2]bool{inherit, never}},
		{&Join{Strategy: JoinMerge}, [][2]bool{never, never}},
	}
	for _, c := range cases {
		if got := len(c.n.Children()); got != len(c.want) {
			t.Fatalf("%T has %d inputs, the table lists %d", c.n, got, len(c.want))
		}
		for i, w := range c.want {
			for d, drained := range []bool{false, true} {
				if got := InputDrained(c.n, i, drained); got != w[d] {
					t.Errorf("InputDrained(%s, %d, %v) = %v, want %v", c.n.Describe(), i, drained, got, w[d])
				}
			}
		}
	}
}
