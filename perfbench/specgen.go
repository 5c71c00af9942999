package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"impulse/internal/service"
)

// genSpec is one generated experiment spec, as submitted and as the
// service normalizes it.
type genSpec struct {
	body  []byte
	spec  service.Spec // normalized
	hash  string
	views []string // result views a hit may ask for; "" is the job's own output
	grid  bool
	class string
}

// batchMix is how many specs of each class every miss batch holds, so
// that every batch does the same mix of work whatever the seed: the seed
// picks configurations inside each class, not the classes.
// The mix is synthetic (README.md gives the rule): cg, diag and table1
// take about equal shares of a batch's execution CPU; mmp, table2 and
// ipc are capped at a seventh of their distinct configurations (48, 9
// and 8), since a run submits seven batches of distinct specs.
var batchMix = map[string]int{"cg": 7, "diag": 37, "table1": 8, "mmp": 6, "table2": 1, "ipc": 1}

// missBatch is how many novel specs one miss batch submits.
const missBatch = 60

// classOrder is the order each batch's specs are submitted in: heaviest
// class first, so that a batch ends on short jobs instead of one long
// job while the other connections idle.
var classOrder = []string{"table2", "cg", "table1", "mmp", "ipc", "diag"}

var (
	prefetches = []string{"none", "mc", "l1", "both"}
	formats    = []string{"text", "json", "columnar"}
	gridViews  = []string{"", "json", "text", "columnar"}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// draw makes one candidate spec of class, the c-th of its class in the
// run. Sizes cycle through each class's range in that order, so the
// measured batches do the same simulation work whatever the seed: a
// table2 grid at n=48 does about 27 times the work of one at n=16, and
// which sizes a seed left to the warm-up batch moved a run's simulated
// accesses by a tenth. rng picks the rest of the configuration.
func draw(rng *rand.Rand, class string, c int) service.Spec {
	switch class {
	case "cg":
		return service.Spec{Kind: "sim", Workload: "cg", N: 256 + 16*(c%25), CGIts: 1,
			Mode: pick(rng, []string{"conventional", "sg", "recolor"}), Prefetch: pick(rng, prefetches)}
	case "mmp":
		return service.Spec{Kind: "sim", Workload: "mmp", N: 16 * (1 + c%4), Tile: 16,
			Mode: pick(rng, []string{"nocopy", "copy", "remap"}), Prefetch: pick(rng, prefetches)}
	case "diag":
		return service.Spec{Kind: "sim", Workload: "diag", N: 64 + 16*(c%61),
			Mode: pick(rng, []string{"conventional", "impulse"}), Prefetch: pick(rng, prefetches)}
	case "ipc":
		return service.Spec{Kind: "sim", Workload: "ipc",
			Mode: pick(rng, []string{"conventional", "impulse"}), Prefetch: pick(rng, prefetches)}
	case "table1":
		return service.Spec{Kind: "table1", N: 64 + 16*(c%13), Nonzer: 2 + rng.Intn(2), Niter: 1, CGIts: 1,
			Shift: float64(10 + rng.Intn(20)), Format: pick(rng, formats)}
	case "table2":
		return service.Spec{Kind: "table2", N: 16 * (1 + c%3), Tile: 16, Format: pick(rng, formats)}
	}
	panic("perfbench: unknown spec class " + class)
}

// generateSpecs makes n distinct specs from seed: the same seed always
// gives the same specs, in the same order, each batch of missBatch made
// up as batchMix says, in classOrder.
func generateSpecs(seed int64, n int) ([]genSpec, error) {
	var pattern []string
	for _, class := range classOrder {
		for k := 0; k < batchMix[class]; k++ {
			pattern = append(pattern, class)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	nth := map[string]int{} // specs of each class so far
	out := make([]genSpec, 0, n)
	for i := 0; i < n; i++ {
		class := pattern[i%len(pattern)]
		nth[class]++
		var g genSpec
		for attempt := 0; ; attempt++ {
			if attempt == 1000 {
				return nil, fmt.Errorf("no new %s spec after 1000 draws (spec %d)", class, i)
			}
			raw := draw(rng, class, nth[class]-1)
			norm, err := raw.Normalize()
			if err != nil {
				return nil, fmt.Errorf("generated spec %+v: %v", raw, err)
			}
			if h := norm.Hash(); !used[h] {
				used[h] = true
				body, err := json.Marshal(raw)
				if err != nil {
					return nil, err
				}
				g = genSpec{body: body, spec: norm, hash: h, views: []string{""}, class: class}
				break
			}
		}
		if g.spec.Kind == "table1" || g.spec.Kind == "table2" {
			g.grid, g.views = true, gridViews
		}
		out = append(out, g)
	}
	return out, nil
}
