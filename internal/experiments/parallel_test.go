package experiments

import (
	"reflect"
	"testing"

	engine "reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/pkg/reesift"
)

// TestCampaignDeterminismAcrossWorkerCounts is the campaign engine's
// core guarantee: a table is a pure function of (Scale, Seed), and the
// worker count changes wall-clock time only. Table4 exercises the
// fixed-count path, Table6 the wave-based failure-quota path, Table7 the
// heap campaigns; their output must be byte-identical at 1, 2, and 8
// workers.
func TestCampaignDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, id := range []string{"table4", "table6", "table7"} {
		checkWorkerInvariance(t, id, 2, 8)
	}
}

// TestCampaignUntilFailuresMatchesSequentialCount pins the
// failure-quota cell semantics on the public Campaign API: the parallel
// wave search must choose exactly the run count a sequential loop
// would, and aggregate exactly the same trials, at any worker count.
func TestCampaignUntilFailuresMatchesSequentialCount(t *testing.T) {
	sc := tinyScale()
	const name = "test"
	const cellName = "wave-count"
	mk := func(seed int64) inject.Config {
		return inject.Config{Seed: seed, Model: inject.ModelRegister, Target: inject.TargetFTM,
			Apps: []*sift.AppSpec{roverApp()}}
	}

	var ref agg
	seqRuns := 0
	for ref.failures < sc.FailureQuota && seqRuns < sc.MaxRunsPerCell {
		ref.add(inject.Run(mk(engine.DeriveSeed(sc.Seed, name+"/"+cellName, seqRuns))))
		seqRuns++
	}
	if seqRuns == sc.MaxRunsPerCell {
		t.Fatalf("fixture never reached the failure quota (%d runs); pick a different cell", seqRuns)
	}

	for _, workers := range []int{1, 3, 8} {
		cres, err := reesift.Campaign{
			Name:    name,
			Seed:    sc.Seed,
			Workers: workers,
			Cells: []reesift.CampaignCell{{
				Name:         cellName,
				Runs:         sc.MaxRunsPerCell,
				FailureQuota: sc.FailureQuota,
				Injection:    roverInjection(inject.ModelRegister, inject.TargetFTM),
			}},
		}.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cell := cres.Cell(cellName)
		if cell.Runs != seqRuns {
			t.Fatalf("workers=%d: chose %d runs, sequential chose %d", workers, cell.Runs, seqRuns)
		}
		a := foldAgg(cell)
		if !reflect.DeepEqual(a, ref) {
			t.Fatalf("workers=%d: aggregate diverged from sequential:\n%+v\nvs\n%+v", workers, a, ref)
		}
	}
}
