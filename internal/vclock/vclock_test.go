package vclock

import (
	"testing"
	"time"
)

func TestDeviceReadWriteTime(t *testing.T) {
	if got := HDD.ReadTime(1e9, 0); got != time.Second {
		t.Errorf("HDD 1GB read = %v, want 1s", got)
	}
	if got := HDD.ReadTime(0, 2); got != 200*time.Microsecond {
		t.Errorf("HDD 2 seeks = %v", got)
	}
	if got := HDD.WriteTime(4e8, 0); got != time.Second {
		t.Errorf("HDD 400MB write = %v, want 1s", got)
	}
	if got := DRAM.ReadTime(1e12, 100); got != 0 {
		t.Errorf("DRAM read = %v, want 0", got)
	}
}

func TestTrackerSerialCPU(t *testing.T) {
	tr := NewTracker(DefaultModel(DRAM))
	tr.ChargeSerialCPU(10 * time.Millisecond)
	if tr.CPUTime() != 10*time.Millisecond || tr.ExecTime() != 10*time.Millisecond {
		t.Errorf("serial: cpu=%v exec=%v", tr.CPUTime(), tr.ExecTime())
	}
}

func TestTrackerParallelCPU(t *testing.T) {
	m := DefaultModel(DRAM)
	tr := NewTracker(m)
	tr.SetDOP(40)
	tr.ChargeParallelCPU(40*time.Millisecond, 1.0)
	// Wall should be ~1ms plus startup; CPU should be >= 40ms plus
	// startup and exchange overhead.
	if tr.CPUTime() < 40*time.Millisecond {
		t.Errorf("parallel cpu = %v", tr.CPUTime())
	}
	wall := tr.ExecTime()
	if wall < time.Millisecond || wall > 5*time.Millisecond {
		t.Errorf("parallel wall = %v", wall)
	}
	// A serial run of the same work takes longer elapsed but less CPU.
	ser := NewTracker(m)
	ser.ChargeParallelCPU(40*time.Millisecond, 1.0)
	if ser.ExecTime() <= wall {
		t.Errorf("serial exec %v should exceed parallel %v", ser.ExecTime(), wall)
	}
	if ser.CPUTime() >= tr.CPUTime() {
		t.Errorf("serial cpu %v should be below parallel %v", ser.CPUTime(), tr.CPUTime())
	}
}

func TestSetDOPClamps(t *testing.T) {
	tr := NewTracker(DefaultModel(DRAM))
	tr.SetDOP(0)
	if tr.DOP != 1 {
		t.Errorf("DOP = %d", tr.DOP)
	}
	tr.SetDOP(1000)
	if tr.DOP != 40 {
		t.Errorf("DOP = %d", tr.DOP)
	}
	// Startup charged exactly once.
	cpu := tr.CPU
	tr.SetDOP(40)
	if tr.CPU != cpu {
		t.Error("startup charged twice")
	}
}

func TestSeqIOOverlapsCPU(t *testing.T) {
	tr := NewTracker(DefaultModel(HDD))
	tr.ChargeSerialCPU(3 * time.Second)
	tr.ChargeSeqRead(1e9) // 1s of sequential IO, fully hidden by CPU
	if got := tr.ExecTime(); got != 3*time.Second {
		t.Errorf("exec = %v, want 3s (IO hidden)", got)
	}
	tr2 := NewTracker(DefaultModel(HDD))
	tr2.ChargeSerialCPU(time.Second)
	tr2.ChargeSeqRead(5e9) // 5s IO dominates
	if got := tr2.ExecTime(); got != 5*time.Second {
		t.Errorf("exec = %v, want 5s (IO bound)", got)
	}
}

func TestRandIOAdds(t *testing.T) {
	tr := NewTracker(DefaultModel(HDD))
	tr.ChargeSerialCPU(time.Second)
	tr.ChargeRandRead(8192, 1)
	want := time.Second + HDD.ReadTime(8192, 1)
	if got := tr.ExecTime(); got != want {
		t.Errorf("exec = %v, want %v", got, want)
	}
	if tr.BytesRead != 8192 {
		t.Errorf("bytes read = %d", tr.BytesRead)
	}
}

func TestMemoryTracking(t *testing.T) {
	tr := NewTracker(DefaultModel(DRAM))
	tr.Alloc(100)
	tr.Alloc(50)
	tr.Free(120)
	tr.Alloc(10)
	if tr.MemPeak != 150 {
		t.Errorf("peak = %d", tr.MemPeak)
	}
	if tr.MemInUse() != 40 {
		t.Errorf("in use = %d", tr.MemInUse())
	}
	tr.Free(1000)
	if tr.MemInUse() != 0 {
		t.Errorf("in use after over-free = %d", tr.MemInUse())
	}
}

func TestMerge(t *testing.T) {
	a := NewTracker(DefaultModel(HDD))
	a.ChargeSerialCPU(time.Second)
	a.Alloc(10)
	b := NewTracker(DefaultModel(HDD))
	b.ChargeSerialCPU(2 * time.Second)
	b.ChargeSeqRead(1e9)
	b.Alloc(100)
	b.SetDOP(8)
	a.Merge(b)
	if a.CPUTime() < 3*time.Second {
		t.Errorf("merged cpu = %v", a.CPUTime())
	}
	if a.MemPeak != 100 {
		t.Errorf("merged peak = %d", a.MemPeak)
	}
	if a.DOP != 8 {
		t.Errorf("merged dop = %d", a.DOP)
	}
	if a.BytesRead != 1e9 {
		t.Errorf("merged read = %d", a.BytesRead)
	}
}

func TestSnapshotAndString(t *testing.T) {
	tr := NewTracker(DefaultModel(DRAM))
	tr.ChargeSerialCPU(time.Millisecond)
	m := tr.Snapshot()
	if m.CPUTime != time.Millisecond {
		t.Errorf("snapshot = %+v", m)
	}
	if s := m.String(); s == "" {
		t.Error("empty string rendering")
	}
}

func TestNegativeChargeIgnored(t *testing.T) {
	tr := NewTracker(DefaultModel(DRAM))
	tr.ChargeSerialCPU(-time.Second)
	tr.ChargeParallelCPU(-time.Second, 1)
	if tr.CPUTime() != 0 || tr.ExecTime() != 0 {
		t.Errorf("negative charges leaked: cpu=%v", tr.CPUTime())
	}
}

func TestCPUHelper(t *testing.T) {
	if CPU(0, 100) != 0 || CPU(-5, 100) != 0 {
		t.Error("non-positive counts should charge nothing")
	}
	if got := CPU(1000, 2.5); got != 2500*time.Nanosecond {
		t.Errorf("CPU(1000, 2.5) = %v", got)
	}
}

func TestSnapshotOverheadConfigured(t *testing.T) {
	m := DefaultModel(DRAM)
	if m.SnapshotReadOverhead <= 1 {
		t.Errorf("snapshot overhead = %v", m.SnapshotReadOverhead)
	}
	if m.ParallelCostThreshold <= 0 || m.MaxDOP != 40 {
		t.Errorf("model defaults: %+v", m)
	}
}

// TestForkMerge checks the contract the parallel executor depends on:
// splitting charges across forked trackers and merging them back yields
// the exact same snapshot as charging one tracker serially. Forks must
// not re-charge parallel startup (SetDOP already did, once).
func TestForkMerge(t *testing.T) {
	m := DefaultModel(DRAM)
	serial := NewTracker(m)
	serial.SetDOP(8)
	for i := 0; i < 6; i++ {
		serial.ChargeParallelCPU(10*time.Millisecond, 1.0)
		serial.ChargeSeqRead(1000)
		serial.Alloc(64)
	}

	par := NewTracker(m)
	par.SetDOP(8)
	forks := []*Tracker{par.Fork(), par.Fork(), par.Fork()}
	for i := 0; i < 6; i++ {
		f := forks[i%len(forks)]
		f.ChargeParallelCPU(10*time.Millisecond, 1.0)
		f.ChargeSeqRead(1000)
	}
	for _, f := range forks {
		if f.Model != par.Model || f.DOP != par.DOP {
			t.Fatal("fork did not inherit model/DOP")
		}
		par.Merge(f)
	}
	for i := 0; i < 6; i++ {
		par.Alloc(64)
	}

	sm, pm := serial.Snapshot(), par.Snapshot()
	if sm != pm {
		t.Errorf("fork/merge snapshot diverges:\n serial: %+v\n forked: %+v", sm, pm)
	}
}
