package rover

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reesift/internal/campaign"
	"reesift/internal/fft"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// directFilter and directSmooth call the kernels the way the program did
// before the memo stood in front of them.
func directFilter(img [][]float64, f int) ([]float64, error) {
	resp, err := fft.DirectionalFilter(img, filterAngles[f], filterHalfWidth)
	if err != nil {
		return nil, err
	}
	return flatten(resp), nil
}

func directSmooth(raw []float64) []float64 {
	return flatten(fft.SmoothEnergy(unflatten(raw, intSqrt(len(raw))), 2))
}

// aliases reports whether a and b share a backing array.
func aliases[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// variant is one input to a step: a flat vector of side n, and whether it
// is the nominal input (which must hit) or not (which must miss).
type variant struct {
	name    string
	v       []float64
	n       int
	nominal bool
}

// variants derives the inputs the property test feeds a step from the
// nominal flat vector v of side n: v itself, random vectors, single-bit
// flips (among them the sign bit of a zero element and a payload bit of a
// NaN), and a vector of the wrong size.
func variants(rng *rand.Rand, v []float64, n int) []variant {
	flip := func(i int, bit uint) []float64 {
		w := slices.Clone(v)
		w[i] = math.Float64frombits(math.Float64bits(w[i]) ^ 1<<bit)
		return w
	}
	out := []variant{{name: "nominal", v: slices.Clone(v), n: n, nominal: true}}
	for k := 0; k < 2; k++ {
		w := make([]float64, len(v))
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		out = append(out, variant{name: "random", v: w, n: n})
	}
	for k := 0; k < 6; k++ {
		out = append(out, variant{name: "flip", v: flip(rng.Intn(len(v)), uint(rng.Intn(64))), n: n})
	}
	for i, x := range v {
		if math.Float64bits(x) == 0 {
			out = append(out, variant{name: "flip sign of +0", v: flip(i, 63), n: n})
			break
		}
	}
	for i, x := range v {
		if math.IsNaN(x) {
			out = append(out, variant{name: "flip NaN payload", v: flip(i, 0), n: n})
			break
		}
	}
	half := n / 2
	out = append(out, variant{name: "wrong size", v: slices.Clone(v[:half*half]), n: half})
	return out
}

// TestStepsMatchKernels is the memo's property: every step returns
// exactly the bits of the kernel it stands in front of, hitting (returning
// the reference's own slice) only on the nominal input.
func TestStepsMatchKernels(t *testing.T) {
	const n, k = 16, 3
	rng := rand.New(rand.NewSource(1))
	zero := make([][]float64, n)
	for i := range zero {
		zero[i] = make([]float64, n)
	}
	withNaN := GenerateImage(n, 5)
	withNaN[3][7] = math.NaN()
	nominals := []struct {
		name string
		img  [][]float64
	}{
		{"generated", GenerateImage(n, 4)},
		{"all zero", zero},
		{"one NaN", withNaN},
	}
	for _, nom := range nominals {
		r, err := newReference(nom.img, k)
		if err != nil {
			t.Fatalf("%s: %v", nom.name, err)
		}
		for f := 0; f < 3; f++ {
			for _, in := range variants(rng, r.image, n) {
				img := unflatten(in.v, in.n)
				got, gerr := r.filter(img, f)
				want, werr := directFilter(img, f)
				if (gerr == nil) != (werr == nil) || !sameBits(got, want) {
					t.Errorf("%s filter %d, %s input: step differs from the kernel", nom.name, f, in.name)
				}
				if aliases(got, r.responses[f]) != in.nominal {
					t.Errorf("%s filter %d, %s input: hit = %v", nom.name, f, in.name, !in.nominal)
				}
			}
			for _, in := range variants(rng, r.responses[f], n) {
				got := r.smooth(in.v, f)
				if !sameBits(got, directSmooth(in.v)) {
					t.Errorf("%s smooth %d, %s input: step differs from the kernel", nom.name, f, in.name)
				}
				if aliases(got, r.features[f]) != in.nominal {
					t.Errorf("%s smooth %d, %s input: hit = %v", nom.name, f, in.name, !in.nominal)
				}
			}
			for _, in := range variants(rng, r.features[f], n) {
				features := [][]float64{r.features[0], r.features[1], r.features[2]}
				features[f] = in.v
				got := r.cluster(features, in.n, k)
				if !slices.Equal(got, kmeans(features, in.n, k)) {
					t.Errorf("%s cluster, %s feature %d: step differs from the kernel", nom.name, in.name, f)
				}
				if aliases(got, r.labels) != in.nominal {
					t.Errorf("%s cluster, %s feature %d: hit = %v", nom.name, in.name, f, !in.nominal)
				}
			}
		}
		features := [][]float64{r.features[0], r.features[1], r.features[2]}
		if got := r.cluster(features, n, k+1); aliases(got, r.labels) || !slices.Equal(got, kmeans(features, n, k+1)) {
			t.Errorf("%s cluster with another cluster count: not the kernel's output", nom.name)
		}
	}
}

// TestNominalStepsHit pins that the program's own reference hits, and that
// a nominal run shares the reference instead of copying it: the image
// loadOrGenerate returns is the reference image, which is safe because its
// heap registration is copy-on-write. What Reference hands out is a copy.
func TestNominalStepsHit(t *testing.T) {
	p := DefaultParams()
	r, err := referenceFor(p)
	if err != nil {
		t.Fatal(err)
	}
	fs := sim.NewFS()
	flat := loadOrGenerate(fs, 1, p, r)
	if !aliases(flat, r.image) {
		t.Fatal("loadOrGenerate must return the reference image itself")
	}
	if data, _ := fs.Read(InputPath(1)); !aliases(data, r.input) || !bytes.Equal(data, encodeF64s(flat)) {
		t.Fatal("input file does not share the encoding of the nominal image")
	}
	if again := loadOrGenerate(fs, 1, p, r); !aliases(again, r.image) {
		t.Fatal("a reload of the nominal input must return the reference image")
	}
	// The registration of the shared image is copy-on-write: a flip
	// gives the program a flipped copy and leaves the reference alone.
	image := flat
	ac := &sift.AppContext{}
	ac.RegisterHeapF64("image", &image)
	ac.FlipHeapF64(7, 51)
	if aliases(image, r.image) || bitsDiffering(image, r.image) != 1 {
		t.Fatal("a flip of the registered image did not yield a copy one bit away")
	}
	if !sameBits(r.image, flatten(GenerateImage(p.ImageSize, p.Seed))) {
		t.Fatal("a flip of the registered image reached the reference")
	}
	features := make([][]float64, 3)
	for f := 0; f < 3; f++ {
		resp, err := r.filter(unflatten(flat, p.ImageSize), f)
		if err != nil || !aliases(resp, r.responses[f]) {
			t.Fatalf("filter %d missed on the nominal image (err %v)", f, err)
		}
		features[f] = slices.Clone(r.smooth(slices.Clone(resp), f))
		if !sameBits(features[f], r.features[f]) {
			t.Fatalf("smooth %d missed on the nominal response", f)
		}
	}
	labels := r.cluster(features, p.ImageSize, p.Clusters)
	if !aliases(labels, r.labels) {
		t.Fatal("cluster missed on the nominal features")
	}
	// The nominal run's files share the reference's bytes, and a
	// restart reads the reference's features back.
	for f := 0; f < 3; f++ {
		writeFeature(fs, 1, r, f, features[f])
		if data, _ := fs.Read(FeatPath(1, f)); !aliases(data, r.featBytes[f]) || !bytes.Equal(data, encodeF64s(features[f])) {
			t.Fatalf("feature file %d does not share the reference's bytes", f)
		}
		if got := readFeature(fs, 1, r, f); !aliases(got, r.features[f]) {
			t.Fatalf("feature file %d did not read back as the reference feature", f)
		}
	}
	writeOutput(fs, 1, r, features, labels)
	if data, _ := fs.Read(OutputPath(1)); !aliases(data, r.output) || !bytes.Equal(data, legacyOutput(features, labels)) {
		t.Fatal("output file does not share the reference's bytes")
	}
	ref, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Analyze(GenerateImage(p.ImageSize, p.Seed), p.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	for f := range ref {
		if aliases(ref[f], r.features[f]) || !sameBits(ref[f], want[f]) {
			t.Fatalf("Reference feature %d is not a copy of Analyze's output", f)
		}
	}
}

// bitsDiffering counts the bits in which a and b differ.
func bitsDiffering(a, b []float64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(math.Float64bits(a[i]) ^ math.Float64bits(b[i]))
	}
	return n
}

// referenceDigest hashes every bit a reference holds.
func referenceDigest(r *reference) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	put(r.image)
	h.Write(r.input)
	for f := 0; f < 3; f++ {
		put(r.responses[f])
		put(r.features[f])
		h.Write(r.featBytes[f])
	}
	h.Write(r.output)
	put(r.scratch)
	for _, l := range r.labels {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestHeapInjectionsLeaveReferenceIntact runs an application-heap
// campaign on both ranks at 4 workers. Rank 0's flips land in the image,
// the FFT scratch and the feature maps, rank 1's in the filter responses.
// None of them may reach the shared reference.
func TestHeapInjectionsLeaveReferenceIntact(t *testing.T) {
	p := DefaultParams()
	r, err := referenceFor(p)
	if err != nil {
		t.Fatal(err)
	}
	before := referenceDigest(r)
	ref, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	runs := 32
	if testing.Short() {
		runs = 8
	}
	results := campaign.Map(4, runs, func(run int) inject.Result {
		return inject.Run(inject.Config{
			Seed:   campaign.DeriveSeed(1, "rover/reference-intact", run),
			Model:  inject.ModelAppHeap,
			Target: inject.TargetApp,
			Rank:   run % 2,
			Apps:   []*sift.AppSpec{Spec(1, []string{"node-a1", "node-a2"}, p)},
			CheckVerdict: func(fs *sim.FS) string {
				return Verify(fs, 1, ref, p.Tolerance).String()
			},
		})
	})
	injected := 0
	for _, res := range results {
		injected += res.Injected
	}
	if injected < runs/2 {
		t.Fatalf("only %d of %d runs injected", injected, runs)
	}
	if after := referenceDigest(r); after != before {
		t.Fatalf("reference digest %x → %x: an injection wrote the shared reference", before, after)
	}
}

// TestColdReferenceConcurrent has 16 goroutines build and use one cold
// reference at once (run it under -race). The seed is used by no other
// test, so the reference is built here.
func TestColdReferenceConcurrent(t *testing.T) {
	p := DefaultParams()
	p.ImageSize = 32
	p.Seed = 90210
	img := GenerateImage(p.ImageSize, p.Seed)
	want, err := directFilter(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	refs := make([]*reference, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			r, err := referenceFor(p)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := r.filter(unflatten(r.nominalImage(p), p.ImageSize), 1)
			if err != nil || !aliases(resp, r.responses[1]) || !sameBits(resp, want) {
				t.Errorf("worker %d: cold filter step did not return the reference's response", w)
			}
			refs[w] = r
		}(w)
	}
	start.Done()
	done.Wait()
	for w := 1; w < workers; w++ {
		if refs[w] != refs[0] {
			t.Fatal("concurrent callers built more than one reference")
		}
	}
}

// TestFailedReferenceComputesDirectly checks that parameters the pipeline
// cannot run on build no reference, and the steps fall through to the
// kernels with their errors.
func TestFailedReferenceComputesDirectly(t *testing.T) {
	p := DefaultParams()
	p.ImageSize = 48 // not a power of two
	r, err := referenceFor(p)
	if r != nil || err == nil {
		t.Fatalf("reference for a %d-pixel image: %v, %v", p.ImageSize, r, err)
	}
	if _, err := Reference(p); err == nil {
		t.Fatal("Reference succeeded without a reference")
	}
	flat := r.nominalImage(p)
	if !sameBits(flat, flatten(GenerateImage(p.ImageSize, p.Seed))) {
		t.Fatal("nominal image without a reference is not the generated one")
	}
	if _, err := r.filter(unflatten(flat, p.ImageSize), 0); err == nil {
		t.Fatal("filter of a non-power-of-two image succeeded")
	}
}

// legacyEncode and legacyOutput are the output formula before the
// exact-size encoders: repeated appends of freshly encoded feature maps.
func legacyEncode(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func legacyOutput(features [][]float64, labels []int) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(labels)))
	for _, l := range labels {
		out = append(out, byte(l))
	}
	for f := 0; f < 3; f++ {
		out = append(out, legacyEncode(features[f])...)
	}
	return out
}

func TestOutputEncodingMatchesAppendFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64}
	cases := []struct {
		name          string
		pixels, label int
	}{
		{"empty", 0, 0},
		{"one pixel", 1, 1},
		{"ragged", 37, 100},
		{"default image", 64 * 64, 64 * 64},
		{"more than 255 labels", 300, 300},
	}
	for _, tc := range cases {
		features := make([][]float64, 3)
		for f := range features {
			features[f] = make([]float64, tc.pixels)
			for i := range features[f] {
				if rng.Intn(8) == 0 {
					features[f][i] = specials[rng.Intn(len(specials))]
				} else {
					features[f][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			}
		}
		labels := make([]int, tc.label)
		for i := range labels {
			labels[i] = rng.Intn(300)
		}
		fs := sim.NewFS()
		writeOutput(fs, 1, nil, features, labels)
		if got, _ := fs.Read(OutputPath(1)); !bytes.Equal(got, legacyOutput(features, labels)) {
			t.Errorf("%s: writeOutput bytes differ from the append formula", tc.name)
		}
	}
}
