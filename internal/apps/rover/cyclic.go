package rover

import (
	"fmt"
	"strconv"
	"time"

	"reesift/internal/sift"
)

// Cyclic mission mode (Section 5.1): the deployed REE applications
// "operate on new data each iteration cycle", so after a failure the
// application can either recompute the interrupted cycle (rollback
// recovery — what the paper's experiments assume, since the input data is
// still on stable storage) or skip it and wait for the next cycle's data
// (forward recovery). CyclicSpec implements both policies over a sequence
// of camera images.

// CyclicParams configures the multi-cycle texture analysis mission.
type CyclicParams struct {
	// Per-cycle pipeline parameters.
	Cycle Params
	// Cycles is the number of camera images to process.
	Cycles int
	// ForwardRecovery skips an interrupted cycle instead of redoing it.
	ForwardRecovery bool
}

// DefaultCyclicParams processes three images with a faster per-cycle
// pipeline (tests and examples don't need the full 20 s filters).
func DefaultCyclicParams() CyclicParams {
	p := DefaultParams()
	p.FilterTime = 8 * time.Second
	p.InitTime = time.Second
	p.ClusterTime = 2 * time.Second
	p.WriteTime = time.Second
	return CyclicParams{Cycle: p, Cycles: 3}
}

// CycleStatusPath tracks mission progress on stable storage.
func CycleStatusPath(id sift.AppID) string { return fmt.Sprintf("rover/%d/cycle", id) }

// CycleOutputPath locates one cycle's segmentation product.
func CycleOutputPath(id sift.AppID, cycle int) string {
	return fmt.Sprintf("rover/%d/cycle-%d/output", id, cycle)
}

// CyclicSpec builds the multi-cycle mission submission. It runs a single
// rank (the mission controller pipeline); the interesting behaviour is the
// recovery policy, not MPI coupling, which the standard Spec already
// exercises.
func CyclicSpec(id sift.AppID, nodes []string, p CyclicParams) *sift.AppSpec {
	spec := &sift.AppSpec{
		ID:              id,
		Name:            "rover-cyclic",
		Ranks:           1,
		Nodes:           nodes,
		PIPeriod:        p.Cycle.FilterTime,
		MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) { runCyclic(ac, spec, p) }
	return spec
}

// runCyclic is the mission controller: one image per cycle, rudimentary
// per-cycle checkpointing, and the configured recovery policy.
func runCyclic(ac *sift.AppContext, spec *sift.AppSpec, p CyclicParams) {
	ac.PICreate(p.Cycle.FilterTime)
	fs := ac.SharedFS()
	counter := uint64(0)

	start, interrupted := readCycleStatus(fs, spec.ID)
	if interrupted >= 0 && p.ForwardRecovery {
		// Forward recovery: the interrupted cycle's science is lost;
		// move on to the next cycle's data.
		start = interrupted + 1
	} else if interrupted >= 0 {
		// Rollback recovery: recompute the interrupted cycle from the
		// data still on stable storage.
		start = interrupted
	}

	for cycle := start; cycle < p.Cycles; cycle++ {
		writeCycleStatus(fs, spec.ID, cycle, true)
		// Each cycle's camera image is distinct.
		cp := p.Cycle
		//reesift:allow seedlint -- app-local image content stream, not a trial seed; offsets index deterministic pixel data within one run
		cp.Seed += int64(cycle)
		ref, _ := referenceFor(cp)
		img := unflatten(ref.nominalImage(cp), cp.ImageSize)
		ac.Proc.Sleep(p.Cycle.InitTime)
		ac.Step()
		features := make([][]float64, 3)
		for f := 0; f < 3; f++ {
			resp, err := directionalFeature(ref, img, f)
			if err != nil {
				ac.Proc.Exit(5, "filter: "+err.Error())
			}
			for c := 0; c < p.Cycle.ChunksPerFilter; c++ {
				ac.Proc.Sleep(p.Cycle.FilterTime / time.Duration(p.Cycle.ChunksPerFilter))
				ac.Step()
			}
			features[f] = resp
			counter++
			ac.Progress(counter)
		}
		ac.Proc.Sleep(p.Cycle.ClusterTime)
		labels := ref.cluster(features, cp.ImageSize, cp.Clusters)
		ac.Proc.Sleep(p.Cycle.WriteTime)
		writeCycleOutput(fs, spec.ID, cycle, features, labels)
		writeCycleStatus(fs, spec.ID, cycle, false)
		counter++
		ac.Progress(counter)
	}
	ac.NotifyExiting()
	fs.Remove(CycleStatusPath(spec.ID))
}

// directionalFeature runs one filter of the pipeline on an image:
// directional band-pass plus local energy smoothing.
func directionalFeature(ref *reference, img [][]float64, f int) ([]float64, error) {
	resp, err := ref.filter(img, f)
	if err != nil {
		return nil, err
	}
	return ref.smooth(resp, f), nil
}

// readCycleStatus returns the next cycle to run and, if a cycle was in
// flight when the previous incarnation died, its index (-1 otherwise).
func readCycleStatus(fs interface {
	Read(string) ([]byte, error)
}, id sift.AppID) (next, interrupted int) {
	data, err := fs.Read(CycleStatusPath(id))
	if err != nil || len(data) < 2 {
		return 0, -1
	}
	inFlight := data[0] == 1
	v, err := strconv.Atoi(string(data[1:]))
	if err != nil || v < 0 {
		return 0, -1
	}
	if inFlight {
		return v, v
	}
	return v + 1, -1
}

func writeCycleStatus(fs interface {
	Write(string, []byte)
}, id sift.AppID, cycle int, inFlight bool) {
	flag := byte(0)
	if inFlight {
		flag = 1
	}
	fs.Write(CycleStatusPath(id), append([]byte{flag}, []byte(strconv.Itoa(cycle))...))
}

func writeCycleOutput(fs interface {
	Write(string, []byte)
}, id sift.AppID, cycle int, features [][]float64, labels []int) {
	out := make([]byte, 0, 1+featureBytes(features))
	out = append(out, byte(len(labels)%256))
	for f := 0; f < 3; f++ {
		out = appendF64s(out, features[f])
	}
	fs.Write(CycleOutputPath(id, cycle), out)
}
