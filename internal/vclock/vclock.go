// Package vclock provides the deterministic resource-accounting model
// that stands in for wall-clock measurement on real hardware. Operators
// execute for real over in-memory data, but every unit of work — CPU
// per row in row mode or batch mode, random page reads, sequential
// segment reads, spill traffic, memory — is charged to a Tracker, which
// converts the accumulated work into virtual execution time and CPU
// time using a calibrated Model and storage DeviceProfiles.
//
// This substitution (see DESIGN.md) replaces the paper's testbed: a
// 40-thread Xeon with 384 GB RAM and an 18 TB HDD array delivering
// roughly 1 GB/s reads and 400 MB/s writes. The model's default
// constants are calibrated so that the relative shapes the paper
// reports (crossover selectivities, row- vs. batch-mode ratios, DOP
// switch artifacts) are reproduced; absolute times are not meaningful.
package vclock

import (
	"fmt"
	"time"
)

// DeviceProfile describes a storage device's performance envelope.
type DeviceProfile struct {
	Name     string
	Seek     time.Duration // latency of one random positioning
	ReadBW   float64       // bytes per second, sequential
	WriteBW  float64       // bytes per second, sequential
	Resident bool          // true if reads are effectively free (DRAM)
}

// Standard profiles modelled on the paper's hardware (Section 3.1).
var (
	// HDD: 18 TB RAID-0 array, ~1 GB/s reads, ~400 MB/s writes. The
	// positioning cost is scaled down with the repo's laptop-scale data
	// so that the seek-vs-scan ratio (a few random pages vs. a full
	// sequential pass) matches the paper's testbed; see EXPERIMENTS.md.
	HDD = DeviceProfile{Name: "hdd", Seek: 100 * time.Microsecond, ReadBW: 1e9, WriteBW: 4e8}
	// SSD profile, available for what-if experiments beyond the paper.
	SSD = DeviceProfile{Name: "ssd", Seek: 80 * time.Microsecond, ReadBW: 2e9, WriteBW: 1e9}
	// DRAM: memory-resident data; reads cost nothing beyond CPU.
	DRAM = DeviceProfile{Name: "dram", Resident: true}
)

// ReadTime returns the virtual time to read the given bytes with the
// given number of random positionings.
func (p DeviceProfile) ReadTime(bytes, seeks int64) time.Duration {
	if p.Resident {
		return 0
	}
	t := time.Duration(seeks) * p.Seek
	if p.ReadBW > 0 {
		t += time.Duration(float64(bytes) / p.ReadBW * float64(time.Second))
	}
	return t
}

// WriteTime returns the virtual time to write the given bytes with the
// given number of random positionings.
func (p DeviceProfile) WriteTime(bytes, seeks int64) time.Duration {
	if p.Resident {
		return 0
	}
	t := time.Duration(seeks) * p.Seek
	if p.WriteBW > 0 {
		t += time.Duration(float64(bytes) / p.WriteBW * float64(time.Second))
	}
	return t
}

// Model holds the calibrated cost constants. Per-row costs are float64
// virtual nanoseconds so that sub-nanosecond batch-mode costs keep
// their precision; use CPU to convert bulk work into a duration.
type Model struct {
	// RowCPU is the row-at-a-time (row mode) processing cost per row per
	// operator touch: B+ tree and heap scans, row-mode filters, DML.
	RowCPU float64
	// BatchCPU is the vectorized (batch mode) cost per value touched in a
	// columnstore scan or batch operator. The RowCPU/BatchCPU ratio is the
	// core row- vs. batch-mode asymmetry the paper measures (roughly 40x).
	BatchCPU float64
	// PageCPU is the buffer-pool/page-latch overhead per page touched.
	PageCPU time.Duration
	// SeekCPU is the cost of one B+ tree root-to-leaf traversal.
	SeekCPU time.Duration
	// HashCPU is the per-row cost of hashing (build or probe).
	HashCPU float64
	// SortCPU is the per-comparison cost during sorting.
	SortCPU float64
	// AggCPU is the per-row aggregate-state update cost.
	AggCPU float64

	// MaxDOP is the maximum degree of parallelism (paper hardware: 40
	// logical processors).
	MaxDOP int
	// BTreeScanEfficiency scales effective DOP for parallel B+ tree range
	// scans, which parallelize worse than columnstore scans.
	BTreeScanEfficiency float64
	// ParallelStartup is the per-query cost of spinning up a parallel
	// plan (thread provisioning + exchanges), charged once.
	ParallelStartup time.Duration
	// ExchangeCPU is the per-row cost of routing rows through exchanges
	// in a parallel plan.
	ExchangeCPU float64

	// ParallelCostThreshold is the estimated serial CPU work above which
	// the optimizer switches to a parallel (MaxDOP) plan — SQL Server's
	// "cost threshold for parallelism". The paper's Figure 1 DOP switch
	// at ~0.2% selectivity is this threshold crossing.
	ParallelCostThreshold time.Duration

	// SnapshotReadOverhead multiplies read CPU under snapshot isolation
	// (version-chain traversal), per the paper's Section 5.2.2 finding
	// that SI reads are slightly more expensive than SR.
	SnapshotReadOverhead float64

	// Data and Temp are the device profiles for the database files and
	// for spill (tempdb) traffic.
	Data DeviceProfile
	Temp DeviceProfile
}

// DefaultModel returns the calibrated model for the paper's testbed with
// data on the given device (vclock.HDD for cold-run experiments,
// vclock.DRAM for hot runs — with DRAM the buffer pool never misses).
func DefaultModel(data DeviceProfile) *Model {
	return &Model{
		RowCPU:                100,
		BatchCPU:              1.0,
		PageCPU:               1500 * time.Nanosecond,
		SeekCPU:               4 * time.Microsecond,
		HashCPU:               40,
		SortCPU:               12,
		AggCPU:                10,
		MaxDOP:                40,
		BTreeScanEfficiency:   0.35,
		ParallelStartup:       150 * time.Microsecond,
		ExchangeCPU:           4,
		ParallelCostThreshold: 250 * time.Microsecond,
		SnapshotReadOverhead:  1.12,
		Data:                  data,
		Temp:                  HDD,
	}
}

// CPU converts bulk per-row work into a duration: n rows at perRow
// virtual nanoseconds each.
func CPU(n int64, perRow float64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * perRow)
}

// Tracker accumulates the resource usage of one query execution and
// converts it into virtual time. CPU is total work summed across
// threads; CPUWall is the elapsed-time contribution of that work given
// the degree of parallelism the charging operator used.
type Tracker struct {
	Model *Model

	CPU     time.Duration // total CPU work (all threads)
	CPUWall time.Duration // elapsed contribution of CPU work
	SeqIO   time.Duration // sequential, prefetchable I/O wait
	RandIO  time.Duration // random, blocking I/O wait

	BytesRead    int64
	BytesWritten int64
	PagesRead    int64
	SegmentsRead int64

	MemPeak int64
	memCur  int64

	// cpuSerial / cpuParallel decompose CPU by charge kind: work that
	// runs on one thread regardless of DOP vs. work an ideal scheduler
	// spreads across DOP threads. The split feeds Model.PredictedSpeedup
	// (the Amdahl cross-check of the 40-core model against measured
	// scaling); exchange overhead and startup are kept out of both.
	cpuSerial   time.Duration
	cpuParallel time.Duration

	DOP           int  // degree of parallelism of the executed plan
	parallelSetup bool // startup charged
}

// NewTracker returns a tracker for one query execution.
func NewTracker(m *Model) *Tracker {
	return &Tracker{Model: m, DOP: 1}
}

// SetDOP records the plan's degree of parallelism and charges the
// parallel startup cost once if dop > 1.
func (t *Tracker) SetDOP(dop int) {
	if dop < 1 {
		dop = 1
	}
	if dop > t.Model.MaxDOP {
		dop = t.Model.MaxDOP
	}
	t.DOP = dop
	if dop > 1 && !t.parallelSetup {
		t.parallelSetup = true
		t.CPUWall += t.Model.ParallelStartup
		t.CPU += t.Model.ParallelStartup * time.Duration(dop) / 4
	}
}

// ChargeSerialCPU charges work that executes on one thread regardless
// of plan DOP (e.g. the final aggregation in a gather).
func (t *Tracker) ChargeSerialCPU(work time.Duration) {
	if work < 0 {
		work = 0
	}
	t.CPU += work
	t.CPUWall += work
	t.cpuSerial += work
}

// ChargeParallelCPU charges work that is spread across the plan's DOP
// with the given scaling efficiency in (0,1].
func (t *Tracker) ChargeParallelCPU(work time.Duration, efficiency float64) {
	t.ChargeParallelRows(1, work, efficiency)
}

// ChargeParallelRows charges n rows of perRow work each exactly as n
// ChargeParallelCPU(perRow, efficiency) calls would, for any model: the
// elapsed share and the exchange overhead are truncated per row, then
// multiplied by n. A batch operator charges its batch in one call
// without moving any figure.
func (t *Tracker) ChargeParallelRows(n int64, perRow time.Duration, efficiency float64) {
	if n <= 0 {
		return
	}
	if perRow < 0 {
		perRow = 0
	}
	rows := time.Duration(n)
	t.CPU += rows * perRow
	t.cpuParallel += rows * perRow
	eff := float64(t.DOP) * efficiency
	if eff < 1 {
		eff = 1
	}
	t.CPUWall += rows * time.Duration(float64(perRow)/eff)
	if t.DOP > 1 {
		// Exchange overhead is proportional to work volume.
		t.CPU += rows * (perRow / 50)
	}
}

// ChargeSeqRead charges a sequential read of the data device (e.g. a
// columnstore segment or read-ahead leaf chain). Sequential reads are
// prefetchable and overlap with CPU in ExecTime.
func (t *Tracker) ChargeSeqRead(bytes int64) {
	t.BytesRead += bytes
	t.SeqIO += t.Model.Data.ReadTime(bytes, 0)
}

// ChargeRandRead charges random reads of the data device (B+ tree page
// fetches). Random reads block the executing thread.
func (t *Tracker) ChargeRandRead(bytes, seeks int64) {
	t.BytesRead += bytes
	t.RandIO += t.Model.Data.ReadTime(bytes, seeks)
}

// ChargeTempWrite charges a spill write to the temp device.
func (t *Tracker) ChargeTempWrite(bytes int64) {
	t.BytesWritten += bytes
	t.RandIO += t.Model.Temp.WriteTime(bytes, 1)
}

// ChargeTempRead charges a spill read from the temp device.
func (t *Tracker) ChargeTempRead(bytes int64) {
	t.BytesRead += bytes
	t.RandIO += t.Model.Temp.ReadTime(bytes, 1)
}

// ChargeDataWrite charges a write to the data device (DML, index build).
func (t *Tracker) ChargeDataWrite(bytes int64, seeks int64) {
	t.BytesWritten += bytes
	t.RandIO += t.Model.Data.WriteTime(bytes, seeks)
}

// Alloc records a memory allocation of b bytes, tracking the peak.
func (t *Tracker) Alloc(b int64) {
	t.memCur += b
	if t.memCur > t.MemPeak {
		t.MemPeak = t.memCur
	}
}

// Free records release of b bytes.
func (t *Tracker) Free(b int64) {
	t.memCur -= b
	if t.memCur < 0 {
		t.memCur = 0
	}
}

// MemInUse returns the currently tracked allocation.
func (t *Tracker) MemInUse() int64 { return t.memCur }

// ExecTime returns the virtual elapsed time of the execution: the CPU
// critical path overlapped with prefetchable sequential I/O, plus
// blocking random I/O.
func (t *Tracker) ExecTime() time.Duration {
	wall := t.CPUWall
	if t.SeqIO > wall {
		wall = t.SeqIO
	}
	return wall + t.RandIO
}

// CPUTime returns total virtual CPU work across all threads.
func (t *Tracker) CPUTime() time.Duration { return t.CPU }

// Fork returns a worker-local tracker for one morsel-driven parallel
// worker. The fork inherits the model and the plan DOP (so per-batch
// ChargeParallelCPU divides by the same effective DOP the serial path
// would use) but marks the parallel startup as already charged: the
// parent charged it once in SetDOP, and merging the forks back must not
// add it again. Worker trackers are merged into the parent with Merge
// at the gather point.
func (t *Tracker) Fork() *Tracker {
	return &Tracker{Model: t.Model, DOP: t.DOP, parallelSetup: true}
}

// Merge adds the usage recorded in other into t. Used when one logical
// statement executes several internal plans (e.g. update = delete +
// insert against multiple indexes).
func (t *Tracker) Merge(other *Tracker) {
	t.CPU += other.CPU
	t.CPUWall += other.CPUWall
	t.cpuSerial += other.cpuSerial
	t.cpuParallel += other.cpuParallel
	t.SeqIO += other.SeqIO
	t.RandIO += other.RandIO
	t.BytesRead += other.BytesRead
	t.BytesWritten += other.BytesWritten
	t.PagesRead += other.PagesRead
	t.SegmentsRead += other.SegmentsRead
	if other.MemPeak > t.MemPeak {
		t.MemPeak = other.MemPeak
	}
	if other.DOP > t.DOP {
		t.DOP = other.DOP
	}
}

// Metrics is the externally reported measurement of one execution,
// mirroring what the paper collects via Query Store and Performance
// Monitor.
type Metrics struct {
	ExecTime time.Duration
	CPUTime  time.Duration
	// CPUSerial and CPUParallel split CPUTime by charge kind (single-
	// threaded vs. DOP-spread work); see Model.PredictedSpeedup.
	CPUSerial   time.Duration
	CPUParallel time.Duration
	DataRead    int64 // bytes
	DataWrite   int64 // bytes
	MemPeak     int64 // bytes
	DOP         int
	Rows        int64 // result rows, set by exec.Execute
}

// Snapshot converts the tracker's state into a Metrics value.
func (t *Tracker) Snapshot() Metrics {
	return Metrics{
		ExecTime:    t.ExecTime(),
		CPUTime:     t.CPUTime(),
		CPUSerial:   t.cpuSerial,
		CPUParallel: t.cpuParallel,
		DataRead:    t.BytesRead,
		DataWrite:   t.BytesWritten,
		MemPeak:     t.MemPeak,
		DOP:         t.DOP,
	}
}

// PredictedSpeedup returns the model's Amdahl-style prediction of the
// real-core speedup at the given DOP for a query whose measured CPU
// decomposition is mt: (s+p) / (s + p/dop + startup). It is the
// 40-core model's scaling claim, cross-checked against measured
// multi-core curves by the bench-scaling rig.
func (m *Model) PredictedSpeedup(mt Metrics, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	if dop > m.MaxDOP {
		dop = m.MaxDOP
	}
	s := float64(mt.CPUSerial)
	p := float64(mt.CPUParallel)
	if s+p <= 0 {
		return 1
	}
	td := s + p/float64(dop)
	if dop > 1 {
		td += float64(m.ParallelStartup)
	}
	return (s + p) / td
}

// String renders metrics compactly for logs and examples.
func (m Metrics) String() string {
	return fmt.Sprintf("exec=%v cpu=%v read=%.1fMB mem=%.1fMB dop=%d rows=%d",
		m.ExecTime.Round(time.Microsecond), m.CPUTime.Round(time.Microsecond),
		float64(m.DataRead)/1e6, float64(m.MemPeak)/1e6, m.DOP, m.Rows)
}
