package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"impulse/internal/colres"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/workloads"
)

// setupProbes is how many times a table run sets up its inputs
// (cancelling the grid at its first cell); setup_s is their median.
const setupProbes = 25

// prefetchColumns are the paper's four table columns, in grid order.
var prefetchColumns = []core.PrefetchPolicy{
	core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth,
}

// tableWorkload is one of the paper's tables at a fixed geometry.
type tableWorkload struct {
	name string
	// gridSeconds is about how long one grid takes on a 2-CPU host; a run
	// renders as many whole grids as fit its seconds, at least one, the
	// same number in every run.
	gridSeconds float64
	// sections names each grid section in the sim.ns_per_access metrics.
	sections []string
	// remapped reports whether a section's cells need Impulse remapping
	// (which, like controller prefetching, needs the Impulse controller).
	remapped func(section int) bool
	// winners are the sections every cell of which must take fewer
	// cycles than the first section's cell in the same column.
	winners []int
	grid    func(ctx context.Context, progress harness.Progress) (*harness.Grid, error)
	// prepare builds the inputs and the host reference, timing each, and
	// returns a function that executes one cell on a fresh system and
	// checks its numerical output against that reference.
	prepare func() (input, reference time.Duration, exec func(section int, s *core.System) (core.Row, error))
}

// table1CG is Table 1 at n=8192: the 64 KB multiplicand vector is larger
// than the 32 KB L1 and smaller than the 256 KB L2, the paper's regime.
func table1CG() tableWorkload {
	par := workloads.CGParams{N: 8192, Nonzer: 6, Niter: 1, CGIts: 4, Shift: 20, RCond: 0.1}
	modes := []workloads.CGMode{workloads.CGConventional, workloads.CGScatterGather, workloads.CGRecolor}
	return tableWorkload{
		name:        "table1-cg",
		gridSeconds: 7,
		sections:    []string{"conventional", "scatter_gather", "recolor"},
		remapped:    func(si int) bool { return si != 0 },
		winners:     []int{1},
		grid: func(ctx context.Context, p harness.Progress) (*harness.Grid, error) {
			return harness.Table1(ctx, par, p)
		},
		prepare: func() (time.Duration, time.Duration, func(int, *core.System) (core.Row, error)) {
			t0 := time.Now()
			m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
			t1 := time.Now()
			zeta, rnorm := workloads.RefCG(m, par)
			t2 := time.Now()
			return t1.Sub(t0), t2.Sub(t1), func(si int, s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, modes[si], m)
				if err != nil {
					return core.Row{}, err
				}
				if res.Zeta != zeta || res.RNorm != rnorm {
					return core.Row{}, checkf("direct %v: zeta=%v rnorm=%v, reference %v/%v",
						modes[si], res.Zeta, res.RNorm, zeta, rnorm)
				}
				return res.Row, nil
			}
		},
	}
}

// table2MMP is Table 2 at 256x256 with 32x32 tiles, where the tiles
// conflict in the caches and copying or remapping them pays off.
func table2MMP() tableWorkload {
	par := workloads.MMPParams{N: 256, Tile: 32}
	modes := []workloads.MMPMode{workloads.MMPNoCopyTiled, workloads.MMPCopyTiled, workloads.MMPTileRemap}
	return tableWorkload{
		name:        "table2-mmp",
		gridSeconds: 15,
		sections:    []string{"nocopy", "copy", "remap"},
		remapped:    func(si int) bool { return si == 2 },
		winners:     []int{1, 2},
		grid: func(ctx context.Context, p harness.Progress) (*harness.Grid, error) {
			return harness.Table2(ctx, par, p)
		},
		prepare: func() (time.Duration, time.Duration, func(int, *core.System) (core.Row, error)) {
			t0 := time.Now()
			want := workloads.RefMMP(par)
			ref := time.Since(t0)
			return 0, ref, func(si int, s *core.System) (core.Row, error) {
				res, err := workloads.RunMMP(s, par, modes[si])
				if err != nil {
					return core.Row{}, err
				}
				if res.Checksum != want {
					return core.Row{}, checkf("direct %v: checksum %v, reference %v", modes[si], res.Checksum, want)
				}
				return res.Row, nil
			}
		},
	}
}

// controllerFor mirrors the harness's rule: remapping or controller
// prefetching needs the Impulse controller.
func controllerFor(remapped bool, pf core.PrefetchPolicy) core.ControllerKind {
	if remapped || pf == core.PrefetchMC || pf == core.PrefetchBoth {
		return core.Impulse
	}
	return core.Conventional
}

//go:embed paper_tables.json
var paperJSON []byte

// paperSpeedups returns the paper's published speedup for every cell of
// g, keyed by the grid's own section and column names, and fails if any
// cell has no published value.
func paperSpeedups(workload string, g *harness.Grid) ([][]float64, error) {
	var pt struct {
		Columns []string                        `json:"columns"`
		Tables  map[string]map[string][]float64 `json:"tables"`
	}
	if err := json.Unmarshal(paperJSON, &pt); err != nil {
		return nil, fmt.Errorf("paper_tables.json: %v", err)
	}
	table, ok := pt.Tables[workload]
	if !ok {
		return nil, fmt.Errorf("paper_tables.json: no table for %s", workload)
	}
	cols := g.Doc().Columns
	out := make([][]float64, len(g.Cells))
	for si, sec := range g.Sections {
		row, ok := table[sec]
		if !ok {
			return nil, fmt.Errorf("paper_tables.json: %s has no section %q", workload, sec)
		}
		for ci := range g.Cells[si] {
			if ci >= len(cols) || ci >= len(pt.Columns) || pt.Columns[ci] != cols[ci] || ci >= len(row) {
				return nil, fmt.Errorf("paper_tables.json: %s/%q has no value for column %d", workload, sec, ci)
			}
			out[si] = append(out[si], row[ci])
		}
	}
	return out, nil
}

// speedups lists every cell's speedup by section and column.
func speedups(g *harness.Grid) [][]float64 {
	out := make([][]float64, len(g.Cells))
	for si := range g.Cells {
		for _, c := range g.Cells[si] {
			out[si] = append(out[si], c.Speedup)
		}
	}
	return out
}

// checkGrid checks the properties every grid of the workload must have:
// three sections of four columns, each load classified exactly once,
// a baseline speedup of exactly 1, and the winning sections ahead of
// the first section in every column.
func checkGrid(tw tableWorkload, g *harness.Grid) error {
	if len(g.Cells) != len(tw.sections) {
		return checkf("%s: %d sections, want %d", tw.name, len(g.Cells), len(tw.sections))
	}
	for si := range g.Cells {
		if len(g.Cells[si]) != len(prefetchColumns) {
			return checkf("%s: section %d has %d columns", tw.name, si, len(g.Cells[si]))
		}
		for ci, c := range g.Cells[si] {
			st := c.Row.Stats
			if st.L1LoadHits+st.L2LoadHits+st.MemLoads != st.Loads {
				return checkf("%s: cell %d/%d: L1 %d + L2 %d + memory %d loads != %d loads",
					tw.name, si, ci, st.L1LoadHits, st.L2LoadHits, st.MemLoads, st.Loads)
			}
		}
	}
	if s := g.Cells[0][0].Speedup; s != 1 {
		return checkf("%s: baseline speedup %v, want exactly 1", tw.name, s)
	}
	for _, w := range tw.winners {
		for ci := range g.Cells[w] {
			if g.Cells[w][ci].Row.Cycles >= g.Cells[0][ci].Row.Cycles {
				return checkf("%s: %q column %d takes %d cycles, not fewer than %q's %d",
					tw.name, g.Sections[w], ci, g.Cells[w][ci].Row.Cycles, g.Sections[0], g.Cells[0][ci].Row.Cycles)
			}
		}
	}
	return nil
}

// checkRowsEqual checks that every grid cell's row, cycles and every
// counter, equals the row of the same cell executed directly.
func checkRowsEqual(g *harness.Grid, direct [][]core.Row) error {
	if len(direct) != len(g.Cells) {
		return checkf("%d directly executed sections, grid has %d", len(direct), len(g.Cells))
	}
	for si := range g.Cells {
		if len(direct[si]) != len(g.Cells[si]) {
			return checkf("section %d: %d directly executed cells, grid has %d", si, len(direct[si]), len(g.Cells[si]))
		}
		for ci := range g.Cells[si] {
			if got, want := g.Cells[si][ci].Row, direct[si][ci]; !reflect.DeepEqual(got, want) {
				return checkf("cell %d/%d (%s): grid row differs from direct execution: cycles %d vs %d, stats %+v vs %+v",
					si, ci, want.Label, got.Cycles, want.Cycles, got.Stats, want.Stats)
			}
		}
	}
	return nil
}

// probeSetup measures the process CPU a table call takes up to its
// first cell, from a fresh heap, then cancels it. Set-up runs on one
// goroutine while nothing else in the process works, so its CPU is its
// own; unlike its wall time it does not count the time the host's
// hypervisor or neighbours take the CPU away.
func probeSetup(ctx context.Context, tw tableWorkload) (time.Duration, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	freshHeap()
	var first time.Duration
	var once sync.Once
	called := false
	c0 := cpuTime()
	_, err := tw.grid(pctx, func(string, string) {
		once.Do(func() { first, called = cpuTime()-c0, true; cancel() })
	})
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if !called {
		return 0, checkf("%s: setup probe ended before its first cell: %v", tw.name, err)
	}
	return first, nil
}

// freshHeap returns the previous round's garbage to the OS, so that each
// round starts from the same heap and peak RSS is one round's, not the
// sum of two. The trace cache must be emptied first, or its recordings
// survive into the next round.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runTable runs one table workload: setup probes, then a fixed number of
// whole grids, each checked. A traced run then breaks the last grid down
// by layer.
func runTable(ctx context.Context, tw tableWorkload, cfg config) (*result, error) {
	res := newResult()
	var setups, walls, cpus []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeSetup(ctx, tw)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	res.addPhase("setup", setupProbes, 0)

	rounds := max(1, int(cfg.seconds.Seconds()/tw.gridSeconds))
	var last *harness.Grid
	var lastEvents []harness.CellEvent
	var lastWall time.Duration
	for round := 1; round <= rounds; round++ {
		harness.ResetTraceCache()
		freshHeap()
		gctx := ctx
		var mu sync.Mutex
		var events []harness.CellEvent
		if cfg.trace {
			gctx = harness.WithCellObserver(ctx, func(ev harness.CellEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			})
		}
		var first time.Time
		var once sync.Once
		t0, c0, s0 := time.Now(), cpuTime(), stolen()
		g, err := tw.grid(gctx, func(string, string) { once.Do(func() { first = time.Now() }) })
		wall, cpu, stole := time.Since(t0), cpuTime()-c0, stolen()-s0
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if err != nil {
			return res, checkf("%s: %v", tw.name, err)
		}
		if err := checkGrid(tw, g); err != nil {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "%s grid %d: wall %.3fs stolen %.3fs cpu %.3fs setup %.3fs peak rss %.0f MB\n",
			tw.name, round, wall.Seconds(), stole.Seconds(), cpu.Seconds(), first.Sub(t0).Seconds(), peakRSSMB())
		walls = append(walls, (wall - stole).Seconds())
		cpus = append(cpus, cpu.Seconds())
		last, lastEvents, lastWall = g, events, wall
	}
	res.addPhase("grid", int64(rounds), 0)

	paper, err := paperSpeedups(tw.name, last)
	if err != nil {
		return res, err
	}
	var accesses, cycles uint64
	for si := range last.Cells {
		for _, c := range last.Cells[si] {
			accesses += c.Row.Stats.Loads + c.Row.Stats.Stores
			cycles += c.Row.Cycles
		}
	}
	res.set("setup_s", median(setups))
	res.set("wall_s", median(walls))
	res.set("cpu_s", median(cpus))
	res.set("sim_accesses_per_cpu_ms", float64(accesses)/(median(cpus)*1000))
	res.set("peak_rss_mb", peakRSSMB())
	res.set("speedup_err_pct", speedupErrPct(speedups(last), paper))
	if !cfg.trace {
		return res, nil
	}

	res.set("sim.accesses", float64(accesses))
	res.set("sim.cycles", float64(cycles))
	recordCellEvents(res, lastEvents, lastWall)
	recordComponents(res, last)
	if err := recordColres(res, [][]byte{last.Columnar()}); err != nil {
		return res, err
	}
	return res, runDirect(ctx, res, tw, last)
}

// recordCellEvents reports how the trace cache ran the grid's cells.
func recordCellEvents(res *result, events []harness.CellEvent, wall time.Duration) {
	var recorded, replayed, executed float64
	var record, apply, decode, busy time.Duration
	for _, ev := range events {
		d := ev.End.Sub(ev.Start)
		busy += d
		decode += ev.Decode
		switch {
		case ev.Mode == "record":
			recorded++
			record += d
		case strings.HasPrefix(ev.Mode, "replay"):
			replayed++
			apply += d
		default:
			executed++
		}
	}
	res.set("harness.cells_recorded", recorded)
	res.set("harness.cells_replayed", replayed)
	res.set("harness.cells_executed", executed)
	res.set("harness.record_ms", ms(record))
	res.set("harness.replay_apply_ms", ms(apply))
	res.set("tracefile.decode_ms", ms(decode))
	res.set("harness.pool_occupancy", busy.Seconds()/(wall.Seconds()*float64(harness.Workers())))
}

// recordComponents sums the modelled components' counters over the
// grid's cells.
func recordComponents(res *result, g *harness.Grid) {
	sums := map[string]uint64{}
	for si := range g.Cells {
		for _, c := range g.Cells[si] {
			st := &c.Row.Stats
			sums["cache.l1_load_hits"] += st.L1LoadHits
			sums["cache.l2_load_hits"] += st.L2LoadHits
			sums["cache.mem_loads"] += st.MemLoads
			sums["tlb.misses"] += st.TLBMisses
			sums["bus.bytes"] += st.BusBytes
			sums["mc.shadow_reads"] += st.ShadowReads
			sums["mc.shadow_dram_reads"] += st.ShadowDRAMReads
			sums["mc.prefetch_hits"] += st.MCPrefetchHits + st.SDescPrefHits
			sums["dram.row_hits"] += st.DRAMRowHits
			sums["dram.row_misses"] += st.DRAMRowMisses
		}
	}
	for name, v := range sums {
		res.set(name, float64(v))
	}
}

// colresRepeats is how many times each columnar operation is timed; the
// median is reported.
const colresRepeats = 200

// recordColres times the columnar result pipeline over grid blobs:
// encode (from the decoded document), decode, and both text renderings.
func recordColres(res *result, blobs [][]byte) error {
	var enc, dec, js, txt []float64
	var size int
	var buf bytes.Buffer
	for _, blob := range blobs {
		doc, err := colres.Decode(blob)
		if err != nil {
			return checkf("decoding a grid's columnar blob: %v", err)
		}
		size += len(blob)
		for i := 0; i < colresRepeats; i++ {
			t0 := time.Now()
			colres.Encode(doc)
			t1 := time.Now()
			_, _ = colres.Decode(blob)
			t2 := time.Now()
			buf.Reset()
			_ = colres.WriteGridJSON(doc, &buf)
			t3 := time.Now()
			buf.Reset()
			_ = colres.RenderText(doc, &buf)
			t4 := time.Now()
			enc = append(enc, us(t1.Sub(t0)))
			dec = append(dec, us(t2.Sub(t1)))
			js = append(js, us(t3.Sub(t2)))
			txt = append(txt, us(t4.Sub(t3)))
		}
	}
	if len(blobs) == 0 {
		return nil
	}
	res.set("colres.encode_us", median(enc))
	res.set("colres.decode_us", median(dec))
	res.set("colres.render_json_us", median(js))
	res.set("colres.render_text_us", median(txt))
	res.set("colres.blob_bytes", float64(size)/float64(len(blobs)))
	return nil
}

// runDirect executes all twelve cells directly, one at a time, without
// the harness, trace cache or vector replay, times each layer from
// outside, and checks every row against the harness grid's.
func runDirect(ctx context.Context, res *result, tw tableWorkload, g *harness.Grid) error {
	harness.ResetTraceCache()
	freshHeap()
	input, reference, exec := tw.prepare()
	res.set("workloads.input_ms", ms(input))
	res.set("workloads.reference_ms", ms(reference))
	var newSystem time.Duration
	direct := make([][]core.Row, len(tw.sections))
	c0 := cpuTime()
	for si := range tw.sections {
		var wall time.Duration
		var accesses uint64
		for _, pf := range prefetchColumns {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			s, err := core.NewSystem(core.Options{Controller: controllerFor(tw.remapped(si), pf), Prefetch: pf})
			newSystem += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: building a system: %v", tw.name, err)
			}
			row, err := exec(si, s)
			s.ReleaseBuffers()
			wall += time.Since(t0)
			if err != nil {
				return checkf("%s: %v", tw.name, err)
			}
			direct[si] = append(direct[si], row)
			accesses += row.Stats.Loads + row.Stats.Stores
		}
		res.set("sim.ns_per_access."+tw.sections[si], float64(wall.Nanoseconds())/float64(accesses))
	}
	res.set("sim.exec_cpu_s", (cpuTime() - c0).Seconds())
	res.set("core.new_system_ms", ms(newSystem))
	res.addPhase("direct", int64(len(tw.sections)*len(prefetchColumns)), 0)
	return checkRowsEqual(g, direct)
}
