package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/stats"
	"impulse/internal/workloads"
)

// syntheticGrid is a 3x4 grid whose cells pass checkGrid for table2MMP:
// consistent load counts, and sections 1 and 2 faster than section 0.
func syntheticGrid() *harness.Grid {
	g := &harness.Grid{Sections: []string{"a", "b", "c"}}
	for si := 0; si < 3; si++ {
		var cells []harness.Cell
		for ci := 0; ci < 4; ci++ {
			st := stats.MemStats{Loads: 100, L1LoadHits: 60, L2LoadHits: 30, MemLoads: 10, Stores: 7}
			row := core.Row{Label: fmt.Sprintf("r%d%d", si, ci), Cycles: uint64(1000 - 200*si - ci), Stats: st}
			cells = append(cells, harness.Cell{Row: row})
		}
		g.Cells = append(g.Cells, cells)
	}
	for si := range g.Cells {
		for ci := range g.Cells[si] {
			g.Cells[si][ci].Speedup = core.Speedup(g.Cells[0][0].Row, g.Cells[si][ci].Row)
		}
	}
	return g
}

func wantCheckErr(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errCheck) {
		t.Errorf("%s: got %v, want a failed check", what, err)
	}
}

func TestCheckGrid(t *testing.T) {
	tw := table2MMP()
	if err := checkGrid(tw, syntheticGrid()); err != nil {
		t.Fatalf("a consistent grid fails: %v", err)
	}

	g := syntheticGrid()
	g.Cells[2][3].Row.Stats.L2LoadHits++ // one load classified twice
	wantCheckErr(t, "perturbed load counter", checkGrid(tw, g))

	g = syntheticGrid()
	g.Cells[0][0].Speedup = 1.0000001
	wantCheckErr(t, "baseline speedup not 1", checkGrid(tw, g))

	g = syntheticGrid()
	g.Cells[1][2].Row.Cycles = g.Cells[0][2].Row.Cycles // no longer beats its column's baseline section
	wantCheckErr(t, "winner not faster", checkGrid(tw, g))

	g = syntheticGrid()
	g.Cells = g.Cells[:2]
	wantCheckErr(t, "missing section", checkGrid(tw, g))
}

func TestCheckRowsEqual(t *testing.T) {
	g := syntheticGrid()
	direct := make([][]core.Row, len(g.Cells))
	for si := range g.Cells {
		for _, c := range g.Cells[si] {
			direct[si] = append(direct[si], c.Row)
		}
	}
	if err := checkRowsEqual(g, direct); err != nil {
		t.Fatalf("identical rows differ: %v", err)
	}
	direct[1][2].Stats.DRAMRowMisses++
	wantCheckErr(t, "perturbed counter", checkRowsEqual(g, direct))
	direct[1][2].Stats.DRAMRowMisses--
	direct[2][0].Cycles++
	wantCheckErr(t, "perturbed cycles", checkRowsEqual(g, direct))
	wantCheckErr(t, "missing section", checkRowsEqual(g, direct[:2]))
}

// TestPaperCoversEveryCell runs both tables at a tiny geometry and checks
// that paper_tables.json has a published speedup for every cell, under
// the section and column names the harness prints.
func TestPaperCoversEveryCell(t *testing.T) {
	ctx := context.Background()
	g1, err := harness.Table1(ctx, workloads.CGClassTiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := harness.Table2(ctx, workloads.MMPParams{N: 32, Tile: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*harness.Grid{"table1-cg": g1, "table2-mmp": g2} {
		p, err := paperSpeedups(name, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p[0][0] != 1 {
			t.Errorf("%s: paper baseline %v, want 1", name, p[0][0])
		}
		g.Sections[1] += " (renamed)"
		if _, err := paperSpeedups(name, g); err == nil {
			t.Errorf("%s: a section without a published value passes", name)
		}
	}
}

func TestCheckBody(t *testing.T) {
	want := []byte("cycles 12345\n")
	if err := checkBody("hit", append([]byte(nil), want...), want); err != nil {
		t.Fatalf("equal bodies differ: %v", err)
	}
	off := append([]byte(nil), want...)
	off[7]++
	wantCheckErr(t, "one byte off", checkBody("hit", off, want))
	wantCheckErr(t, "one byte short", checkBody("hit", want[:len(want)-1], want))
}

func TestCheckOwner(t *testing.T) {
	ok := submitted{ID: "s1.j-000003", Hash: "abc", Shard: "s1"}
	if err := checkOwner(ok, "abc", "s1"); err != nil {
		t.Fatalf("owner-served job fails: %v", err)
	}
	wantCheckErr(t, "served by a non-owner shard", checkOwner(ok, "abc", "s0"))
	wantCheckErr(t, "job ID from another shard", checkOwner(submitted{ID: "s0.j-000003", Hash: "abc", Shard: "s1"}, "abc", "s1"))
	wantCheckErr(t, "wrong spec hash", checkOwner(ok, "abd", "s1"))
}

func TestCheckPredict(t *testing.T) {
	want := []byte(`{"cells":[1,2]}`)
	body := []byte("{\n  \"family\": \"sram\",\n  \"grid\": {\n    \"cells\": [1, 2]\n  }\n}\n")
	if err := checkPredict("sram", body, want); err != nil {
		t.Fatalf("matching answer fails: %v", err)
	}
	wantCheckErr(t, "other family", checkPredict("stride", body, want))
	wantCheckErr(t, "other grid", checkPredict("sram", bytes.Replace(body, []byte("2]"), []byte("3]"), 1), want))
}

func TestCheckExecutions(t *testing.T) {
	if err := checkExecutions(12, 12); err != nil {
		t.Fatal(err)
	}
	wantCheckErr(t, "a re-execution", checkExecutions(13, 12))
}

func TestCountAccesses(t *testing.T) {
	counters := []byte("row000.CG_sg/none.Loads 100\nrow000.CG_sg/none.Stores 20\nrow000.CG_sg/none.L1LoadHits 90\n" +
		"row001.x.Loads 5\nrow001.x.Stores 1\n")
	if got := countAccesses(counters); got != 126 {
		t.Errorf("countAccesses = %d, want 126", got)
	}
}

func TestGenerateSpecs(t *testing.T) {
	n := 7 * missBatch // a whole run's specs, so every capped class's space must last
	a, err := generateSpecs(3, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateSpecs(3, n)
	c, _ := generateSpecs(4, n)
	seen := map[string]bool{}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("spec %d differs between two runs of one seed", i)
		}
		if seen[a[i].hash] {
			t.Fatalf("spec %d repeats hash %s", i, a[i].hash)
		}
		seen[a[i].hash] = true
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == n {
		t.Error("two seeds generate the same specs")
	}
	rank := map[string]int{}
	for i, cl := range classOrder {
		rank[cl] = i
	}
	// Every batch has the same make-up, heaviest class first.
	for lo := 0; lo < n; lo += missBatch {
		count := map[string]int{}
		for i, g := range a[lo : lo+missBatch] {
			count[g.class]++
			if i > 0 && rank[g.class] < rank[a[lo+i-1].class] {
				t.Fatalf("batch at %d is not in class order", lo)
			}
		}
		if fmt.Sprint(count) != fmt.Sprint(batchMix) {
			t.Errorf("batch at %d has make-up %v, want %v", lo, count, batchMix)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics, with the same units, that the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, the command %s/%s", c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
