package experiments

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"reesift/pkg/reesift"
)

// TestPairedArmBundlesReplayTheirOwnTrial runs the ablations whose two
// arms share seeds on purpose, traced, and requires every breach bundle
// they report to be a file of its own that replays exactly one trial: the
// bundle's, with its seed, verdict and trace digest. Replay is wired as
// the CLI's -replay does it, from the bundle alone. The assertion ablation
// has system failures in both arms at this scale, so it must write
// bundles; the checkpoint ablation is checked on whatever it writes.
func TestPairedArmBundlesReplayTheirOwnTrial(t *testing.T) {
	for _, tc := range []struct {
		id          string
		wantBundles bool
	}{{"ablation-assertions", true}, {"ablation-checkpoints", false}} {
		t.Run(tc.id, func(t *testing.T) {
			s, _ := reesift.Lookup(tc.id)
			dir := t.TempDir()
			sc := tinyScale()
			sc.Trace = &reesift.TraceSpec{Dir: dir}
			res, err := reesift.RunScenario(s, sc)
			if err != nil {
				t.Fatal(err)
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			distinct := slices.Compact(slices.Clone(res.BreachBundles))
			if (tc.wantBundles && len(res.BreachBundles) == 0) || len(distinct) != len(res.BreachBundles) || len(files) != len(distinct) {
				t.Fatalf("%d bundles reported, %d distinct, %d files written", len(res.BreachBundles), len(distinct), len(files))
			}
			for _, path := range res.BreachBundles {
				b, err := reesift.ReadBundle(path)
				if err != nil {
					t.Fatal(err)
				}
				var rsc reesift.Scale
				if err := json.Unmarshal(b.Meta, &rsc); err != nil {
					t.Fatal(err)
				}
				rsc.Seed, rsc.Workers = b.BaseSeed, 1
				rsc.Trace = &reesift.TraceSpec{Buffer: b.Buffer, MetricsEvery: b.MetricsEvery}
				var got []reesift.InjectionResult
				rsc.Replay = &reesift.Replay{Campaign: b.Campaign, Cell: b.Cell, Run: b.Run,
					OnResult: func(r reesift.InjectionResult) { got = append(got, r) }}
				reesift.RunScenario(s, rsc) // a single-trial result set fails the scenario's checks by design
				if len(got) != 1 {
					t.Fatalf("%s: replay ran %d trials, want 1", path, len(got))
				}
				if r := got[0]; r.Seed != b.Seed || !r.SystemFailure || r.SysMode.String() != b.Verdict.SysMode || r.TraceDigest != b.TraceDigest {
					t.Errorf("%s: replayed seed %d, %s, digest %s; recorded seed %d, %s, digest %s",
						path, r.Seed, r.SysMode, r.TraceDigest, b.Seed, b.Verdict.SysMode, b.TraceDigest)
				}
			}
		})
	}
}
