// Package rover implements the Mars Rover texture analysis program of
// Section 2: cameras store images of the Martian surface on stable
// storage; the program applies three FFT-based directional texture filters
// to extract a feature vector per pixel along each image axis, clusters
// the feature vectors to segment the image (distinguishing rocks from
// soil), and writes the segmented image in feature-vector space back to
// disk.
//
// Fault-tolerance-relevant structure, matched to the paper:
//
//   - two MPI ranks; rank 0 runs the filters, rank 1 smooths the filter
//     responses into local texture energy — each filter phase exchanges
//     data between ranks, so a stalled rank stalls its peer;
//   - each filter runs ~20 virtual seconds (the paper's FFT library
//     time), so progress indicators update once per filter and cannot be
//     checked more often than every 20 s;
//   - rudimentary checkpoints: a status file updated after each filter
//     lets a restarted run skip completed filters but redo the
//     interrupted one;
//   - an output verifier classifies post-injection output as correct
//     (within tolerance) or incorrect, implementing the paper's
//     "detectably incorrect output" failure definition.
//
// The pipeline's compute is memoized, and the memo is exact. Its cost is
// charged in virtual time (Proc.Sleep), so host compute matters only for
// the bits it outputs, and almost every run filters the same image: the
// one Params.Seed generates. Each pure step (directional filter, energy
// smoothing, k-means) therefore returns the output stored for that
// nominal image when its input is bit-identical to the nominal input, and
// runs the kernel otherwise. An input that an injected bit flip corrupted
// differs in at least one bit, so it misses and is computed for real (see
// reference.go).
package rover

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"reesift/internal/fft"
	"reesift/internal/mpi"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// Params configures the texture analysis program.
type Params struct {
	// ImageSize is the square image side (power of two).
	ImageSize int
	// Clusters is the number of texture classes for segmentation.
	Clusters int
	// FilterTime is the virtual duration of one directional filter
	// (about 20 s per filter in the paper).
	FilterTime time.Duration
	// ChunksPerFilter splits each filter's virtual time into work
	// units, between which injected errors can activate.
	ChunksPerFilter int
	// InitTime, ClusterTime, and WriteTime are the virtual durations of
	// image load, statistical clustering, and output writing.
	InitTime    time.Duration
	ClusterTime time.Duration
	WriteTime   time.Duration
	// Seed generates the synthetic Martian surface image.
	Seed int64
	// Tolerance is the relative feature deviation accepted by the
	// output verifier.
	Tolerance float64
}

// DefaultParams yields an actual execution time of roughly 72-76 virtual
// seconds, matching the paper's baseline (Table 3).
func DefaultParams() Params {
	return Params{
		ImageSize:       64,
		Clusters:        3,
		FilterTime:      20 * time.Second,
		ChunksPerFilter: 4,
		InitTime:        2 * time.Second,
		ClusterTime:     6 * time.Second,
		WriteTime:       2 * time.Second,
		Seed:            1,
		Tolerance:       1e-2,
	}
}

// filterAngles are the three image axes of the paper's filter bank.
var filterAngles = [3]float64{0, math.Pi / 4, math.Pi / 2}

const filterHalfWidth = math.Pi / 8

// Spec builds the application submission for the SIFT environment.
func Spec(id sift.AppID, nodes []string, p Params) *sift.AppSpec {
	spec := &sift.AppSpec{
		ID:              id,
		Name:            "rover-texture",
		Ranks:           2,
		Nodes:           nodes,
		PIPeriod:        p.FilterTime, // one indicator per filter
		MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) { run(ac, spec, p) }
	return spec
}

// InputPath, StatusPath, and OutputPath locate the application's files on
// the shared stable storage (the testbed's Sun workstation disk).
func InputPath(id sift.AppID) string  { return fmt.Sprintf("rover/%d/input", id) }
func StatusPath(id sift.AppID) string { return fmt.Sprintf("rover/%d/status", id) }
func FeatPath(id sift.AppID, f int) string {
	return fmt.Sprintf("rover/%d/feat-%d", id, f)
}
func OutputPath(id sift.AppID) string { return fmt.Sprintf("rover/%d/output", id) }

// run is one MPI rank of the texture analysis program.
func run(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	if ac.Rank == 0 {
		runMaster(ac, spec, p)
	} else {
		runWorker(ac, spec, p)
	}
}

func runMaster(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	// Table 1 step 5: launch the other rank, report its PID via the FTM.
	peer := ac.SpawnRank(spec.Nodes[1%len(spec.Nodes)], 1)
	ac.SendPIDs(map[int]sim.PID{1: peer})
	world, err := mpi.NewLeader(ac, uint64(spec.ID), 2, map[int]sim.PID{1: peer}, spec.MPIStartTimeout)
	if err != nil {
		// The MPI application aborts (Figure 8); the Execution ARMOR
		// sees an abnormal exit and reports the failure.
		ac.Proc.Exit(4, "mpi startup: "+err.Error())
	}
	ac.PICreate(p.FilterTime)

	// Load the image from stable storage, generating the synthetic
	// surface on the first run (the camera's job in flight).
	fs := ac.SharedFS()
	ref, _ := referenceFor(p) // nil on failure: every step then computes
	flat := loadOrGenerate(fs, spec.ID, p, ref)
	ac.RegisterHeapF64("image", &flat)
	// FFT work buffers and staging copies occupy a large share of the
	// process heap; between filter invocations their contents are dead,
	// so bit flips there have no effect — the dominant case the paper
	// observed (981 of 1000 heap errors harmless).
	scratch := ref.fftScratch(4 * len(flat))
	ac.RegisterHeapF64("fft-scratch", &scratch)
	n := p.ImageSize
	sizeField := n
	ac.RegisterHeapInt("imageSize", &sizeField)
	ac.Step()
	ac.Proc.Sleep(p.InitTime)

	// Rudimentary checkpoint: skip filters completed before a restart.
	startFilter := readStatus(fs, spec.ID)
	features := make([][]float64, 3)
	for f := 0; f < startFilter; f++ {
		features[f] = readFeature(fs, spec.ID, ref, f)
	}
	counter := uint64(startFilter)

	for f := startFilter; f < 3; f++ {
		// The FFT library call: ~20 s of virtual compute split into
		// chunks so injected errors can activate mid-filter.
		resp, ferr := ref.filter(unflatten(flat, sizeField), f)
		if ferr != nil {
			ac.Proc.Exit(5, "filter: "+ferr.Error())
		}
		half := p.ChunksPerFilter / 2
		for c := 0; c < half; c++ {
			ac.Proc.Sleep(p.FilterTime / time.Duration(p.ChunksPerFilter))
			ac.Step()
		}
		// Ship the raw response to rank 1 for energy smoothing and
		// keep computing; collect the smoothed map afterwards. The
		// blocking receive is what couples the ranks.
		world.Send(1, filterTag(f), resp)
		for c := half; c < p.ChunksPerFilter; c++ {
			ac.Proc.Sleep(p.FilterTime / time.Duration(p.ChunksPerFilter))
			ac.Step()
		}
		smoothed, rerr := world.Recv(1, filterTag(f)+"-done", 30*time.Minute)
		if rerr != nil {
			ac.Proc.Exit(6, "filter exchange: "+rerr.Error())
		}
		features[f] = smoothed
		ac.RegisterHeapF64(fmt.Sprintf("feature-%d", f), &features[f])
		// Rudimentary checkpoint after each filter.
		writeFeature(fs, spec.ID, ref, f, features[f])
		writeStatus(fs, spec.ID, f+1)
		counter++
		ac.Progress(counter)
	}

	// Statistical clustering of per-pixel feature vectors.
	ac.Proc.Sleep(p.ClusterTime)
	ac.Step()
	labels := ref.cluster(features, sizeField, p.Clusters)
	ac.Proc.Sleep(p.WriteTime)
	writeOutput(fs, spec.ID, ref, features, labels)
	counter++
	ac.Progress(counter)

	world.Send(1, "done", nil)
	ac.NotifyExiting()
	// A fresh submission of the same ID would start from filter 0.
	fs.Remove(StatusPath(spec.ID))
}

func runWorker(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	if !ac.WaitChannelOpen(15 * time.Second) {
		ac.Proc.Exit(3, "channel open timeout")
	}
	world, err := mpi.JoinWorker(ac, uint64(spec.ID), 1, spec.MPIStartTimeout)
	if err != nil {
		ac.Proc.Exit(4, "mpi join: "+err.Error())
	}
	ac.PICreate(p.FilterTime)
	ref, _ := referenceFor(p)
	counter := uint64(0)
	startFilter := readStatus(ac.SharedFS(), spec.ID)
	for f := startFilter; f < 3; f++ {
		raw, rerr := world.Recv(0, filterTag(f), 30*time.Minute)
		if rerr != nil {
			ac.Proc.Exit(6, "filter exchange: "+rerr.Error())
		}
		ac.RegisterHeapF64(fmt.Sprintf("response-%d", f), &raw)
		// Smooth the pointwise response into local texture energy;
		// the virtual cost mirrors the master's chunking.
		for c := 0; c < p.ChunksPerFilter/2; c++ {
			ac.Proc.Sleep(p.FilterTime / time.Duration(p.ChunksPerFilter))
			ac.Step()
		}
		world.Send(0, filterTag(f)+"-done", ref.smooth(raw, f))
		counter++
		ac.Progress(counter)
	}
	_, _ = world.Recv(0, "done", 30*time.Minute)
	ac.NotifyExiting()
}

func filterTag(f int) string { return "filter-" + strconv.Itoa(f) }

// ---------------------------------------------------------------------------
// Pure pipeline (also usable outside the simulation, e.g. for the
// reference output the verifier compares against).
// ---------------------------------------------------------------------------

// GenerateImage synthesizes a Martian surface: three regions with
// distinct oriented micro-textures (bedrock striations, wind ripples,
// rough rubble) so the filter bank has something to separate.
func GenerateImage(n int, seed int64) [][]float64 {
	img := make([][]float64, n)
	rng := newLCG(seed)
	for r := range img {
		img[r] = make([]float64, n)
		for c := range img[r] {
			var v float64
			switch {
			case c < n/3:
				// Horizontal striations (vary along rows).
				v = math.Sin(2 * math.Pi * 6 * float64(r) / float64(n))
			case c < 2*n/3:
				// Diagonal ripples.
				v = math.Sin(2 * math.Pi * 6 * (float64(r) + float64(c)) / (math.Sqrt2 * float64(n)))
			default:
				// Vertical fractures (vary along columns).
				v = math.Sin(2 * math.Pi * 6 * float64(c) / float64(n))
			}
			img[r][c] = v + 0.1*rng.norm()
		}
	}
	return img
}

// Analyze runs the full pipeline without the cluster, calling the kernels
// directly: the reference implementation the memoized steps are checked
// against.
func Analyze(img [][]float64, clusters int) (features [][]float64, labels []int, err error) {
	_, features, labels, err = analyze(img, clusters)
	return features, labels, err
}

// analyze is Analyze that also keeps the flat, unsmoothed filter
// responses.
func analyze(img [][]float64, clusters int) (responses, features [][]float64, labels []int, err error) {
	responses = make([][]float64, 3)
	features = make([][]float64, 3)
	for f := 0; f < 3; f++ {
		resp, ferr := fft.DirectionalFilter(img, filterAngles[f], filterHalfWidth)
		if ferr != nil {
			return nil, nil, nil, ferr
		}
		responses[f] = flatten(resp)
		features[f] = flatten(fft.SmoothEnergy(resp, 2))
	}
	labels = kmeans(features, len(img), clusters)
	return responses, features, labels, nil
}

// kmeans clusters per-pixel 3-component feature vectors with Lloyd's
// algorithm, deterministic initialization, fixed iteration count.
func kmeans(features [][]float64, n, k int) []int {
	total := n * n
	labels := make([]int, total)
	cent := make([][3]float64, k)
	for j := 0; j < k; j++ {
		idx := j * (total - 1) / max(1, k-1)
		cent[j] = featAt(features, idx)
	}
	for iter := 0; iter < 12; iter++ {
		var sum [][3]float64 = make([][3]float64, k)
		cnt := make([]int, k)
		for i := 0; i < total; i++ {
			v := featAt(features, i)
			best, bestD := 0, math.MaxFloat64
			for j := 0; j < k; j++ {
				d := dist2(v, cent[j])
				if d < bestD {
					best, bestD = j, d
				}
			}
			labels[i] = best
			cnt[best]++
			for x := 0; x < 3; x++ {
				sum[best][x] += v[x]
			}
		}
		for j := 0; j < k; j++ {
			if cnt[j] == 0 {
				continue
			}
			for x := 0; x < 3; x++ {
				cent[j][x] = sum[j][x] / float64(cnt[j])
			}
		}
	}
	return labels
}

func featAt(features [][]float64, i int) [3]float64 {
	var v [3]float64
	for f := 0; f < 3; f++ {
		if i < len(features[f]) {
			v[f] = features[f][i]
		}
	}
	return v
}

func dist2(a, b [3]float64) float64 {
	s := 0.0
	for i := 0; i < 3; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ---------------------------------------------------------------------------
// Stable-storage formats.
// ---------------------------------------------------------------------------

// loadOrGenerate returns the flat input image, read from stable storage
// or, on the first run, generated and stored there. The slice may be the
// reference image, which nobody writes.
func loadOrGenerate(fs *sim.FS, id sift.AppID, p Params, ref *reference) []float64 {
	if data, err := fs.Read(InputPath(id)); err == nil {
		flat := ref.decodeImage(data)
		if n := intSqrt(len(flat)); n*n == len(flat) && n > 0 {
			return flat
		}
	}
	flat := ref.nominalImage(p)
	if ref != nil {
		fs.Share(InputPath(id), ref.input)
	} else {
		fs.Share(InputPath(id), encodeF64s(flat))
	}
	return flat
}

func readStatus(fs *sim.FS, id sift.AppID) int {
	data, err := fs.Read(StatusPath(id))
	if err != nil || len(data) == 0 {
		return 0
	}
	v, err := strconv.Atoi(string(data))
	if err != nil || v < 0 || v > 3 {
		return 0
	}
	return v
}

func writeStatus(fs *sim.FS, id sift.AppID, completed int) {
	fs.Write(StatusPath(id), []byte(strconv.Itoa(completed)))
}

// writeFeature stores feature map f as the rudimentary checkpoint of
// filter f.
func writeFeature(fs *sim.FS, id sift.AppID, ref *reference, f int, v []float64) {
	fs.Share(FeatPath(id, f), ref.featureFile(v, f))
}

// readFeature returns feature map f stored by writeFeature, or nil.
func readFeature(fs *sim.FS, id sift.AppID, ref *reference, f int) []float64 {
	data, err := fs.Read(FeatPath(id, f))
	if err != nil {
		return nil
	}
	return ref.decodeFeature(data, f)
}

// writeOutput stores the segmentation product.
func writeOutput(fs *sim.FS, id sift.AppID, ref *reference, features [][]float64, labels []int) {
	fs.Share(OutputPath(id), ref.outputFile(features, labels))
}

// encodeOutput is the output file format: the label count, one byte per
// label, then the three feature maps.
func encodeOutput(features [][]float64, labels []int) []byte {
	out := make([]byte, 0, 4+len(labels)+featureBytes(features))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(labels)))
	for _, l := range labels {
		out = append(out, byte(l))
	}
	for f := 0; f < 3; f++ {
		out = appendF64s(out, features[f])
	}
	return out
}

// featureBytes is the encoded size of the three feature maps.
func featureBytes(features [][]float64) int {
	return 8 * (len(features[0]) + len(features[1]) + len(features[2]))
}

// Output is the parsed segmentation product.
type Output struct {
	Labels   []int
	Features [][]float64
}

// ReadOutput parses the output file.
func ReadOutput(fs *sim.FS, id sift.AppID) (*Output, error) {
	data, err := fs.Read(OutputPath(id))
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("rover: truncated output")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || 4+n > len(data) {
		return nil, fmt.Errorf("rover: corrupt output header")
	}
	out := &Output{Labels: make([]int, n)}
	for i := 0; i < n; i++ {
		out.Labels[i] = int(data[4+i])
	}
	rest := data[4+n:]
	if len(rest)%(8*3) != 0 {
		return nil, fmt.Errorf("rover: corrupt feature block")
	}
	per := len(rest) / 3
	for f := 0; f < 3; f++ {
		out.Features = append(out.Features, decodeF64s(rest[f*per:(f+1)*per]))
	}
	return out, nil
}

func encodeF64s(v []float64) []byte {
	return appendF64s(make([]byte, 0, 8*len(v)), v)
}

// appendF64s appends the little-endian encoding of v to out.
func appendF64s(out []byte, v []float64) []byte {
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func decodeF64s(data []byte) []float64 {
	out := make([]float64, 0, len(data)/8)
	for i := 0; i+8 <= len(data); i += 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	return out
}

// ---------------------------------------------------------------------------
// Verifier (the paper's application-provided verification program).
// ---------------------------------------------------------------------------

// Verdict classifies a run's output.
type Verdict int

// Verdicts.
const (
	// VerdictCorrect means the output is present and within tolerance.
	VerdictCorrect Verdict = iota + 1
	// VerdictIncorrect means the output parses but deviates beyond
	// tolerance ("detectably incorrect output").
	VerdictIncorrect
	// VerdictMissing means no (parseable) output was produced.
	VerdictMissing
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictCorrect:
		return "correct"
	case VerdictIncorrect:
		return "incorrect"
	case VerdictMissing:
		return "missing"
	default:
		return "unknown"
	}
}

// Verify compares a run's output on the shared store against the
// reference features within the tolerance.
func Verify(fs *sim.FS, id sift.AppID, refFeatures [][]float64, tol float64) Verdict {
	out, err := ReadOutput(fs, id)
	if err != nil {
		return VerdictMissing
	}
	scale := 0.0
	for _, f := range refFeatures {
		for _, v := range f {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	for f := 0; f < 3; f++ {
		if len(out.Features[f]) != len(refFeatures[f]) {
			return VerdictIncorrect
		}
		for i := range refFeatures[f] {
			d := math.Abs(out.Features[f][i] - refFeatures[f][i])
			if d/scale > tol || math.IsNaN(d) {
				return VerdictIncorrect
			}
		}
	}
	return VerdictCorrect
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

func flatten(m [][]float64) []float64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]float64, 0, len(m)*len(m[0]))
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func unflatten(v []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for r := 0; r < n; r++ {
		out[r] = v[r*n : (r+1)*n]
	}
	return out
}

func intSqrt(n int) int {
	r := int(math.Round(math.Sqrt(float64(n))))
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// lcg is a tiny deterministic noise source independent of math/rand, so
// reference image generation is stable across Go versions.
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) next() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(l.s>>11) / float64(1<<53)
}

// norm approximates a standard normal via the sum of uniforms.
func (l *lcg) norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += l.next()
	}
	return s - 6
}
