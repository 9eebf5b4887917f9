package rover

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"

	"reesift/internal/fft"
)

// reference is the pipeline's output on the nominal input of one
// (ImageSize, Seed, Clusters): the image GenerateImage draws from the
// seed, untouched by any injection. It is built once per process by the
// same code Analyze runs and never written afterwards.
type reference struct {
	n, clusters int
	image       []float64    // the flat nominal image
	input       []byte       // the input file's bytes, encodeF64s(image)
	responses   [3][]float64 // flat DirectionalFilter responses
	features    [3][]float64 // the responses smoothed into texture energy
	featBytes   [3][]byte    // feature file f's bytes, encodeF64s(features[f])
	labels      []int
	output      []byte    // the output file's bytes, encodeOutput(features, labels)
	scratch     []float64 // the FFT work buffer, 4n² zeros
}

type referenceKey struct {
	n, clusters int
	seed        int64
}

type referenceEntry struct {
	once sync.Once
	ref  *reference
	err  error
}

// references holds one *referenceEntry per referenceKey.
var references sync.Map

// referenceFor returns the reference of p's nominal input, building it on
// first use. It is safe for concurrent use by campaign workers. When
// building fails (p.ImageSize not a power of two, say) the error is kept
// and the reference is nil, so every step computes directly and fails as
// the kernels do.
func referenceFor(p Params) (*reference, error) {
	key := referenceKey{n: p.ImageSize, clusters: p.Clusters, seed: p.Seed}
	v, ok := references.Load(key)
	if !ok {
		v, _ = references.LoadOrStore(key, new(referenceEntry))
	}
	e := v.(*referenceEntry)
	e.once.Do(func() {
		if p.ImageSize < 1 || p.Clusters < 1 {
			e.err = fmt.Errorf("rover: no reference for image size %d and %d clusters", p.ImageSize, p.Clusters)
			return
		}
		e.ref, e.err = newReference(GenerateImage(p.ImageSize, p.Seed), p.Clusters)
	})
	return e.ref, e.err
}

// newReference runs the pipeline on img and keeps every intermediate the
// steps below can return.
func newReference(img [][]float64, clusters int) (*reference, error) {
	responses, features, labels, err := analyze(img, clusters)
	if err != nil {
		return nil, err
	}
	r := &reference{n: len(img), clusters: clusters, image: flatten(img), labels: labels}
	r.input = encodeF64s(r.image)
	copy(r.responses[:], responses)
	copy(r.features[:], features)
	for f, v := range features {
		r.featBytes[f] = encodeF64s(v)
	}
	r.output = encodeOutput(features, labels)
	r.scratch = make([]float64, 4*len(r.image))
	return r, nil
}

// Reference returns the features the pipeline produces on p's nominal
// image: the ground truth the output verifier compares against. The
// slices are the caller's own.
func Reference(p Params) ([][]float64, error) {
	r, err := referenceFor(p)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, 3)
	for f := range out {
		out[f] = slices.Clone(r.features[f])
	}
	return out, nil
}

// The steps. The program's cost is virtual (Proc.Sleep), so the host
// compute of a pure step matters only for the bits it outputs, and a step
// whose input is bit-identical to the nominal one outputs the reference's
// bits. Each step therefore compares its input with the reference, with
// Float64bits rather than == (-0 == +0, and NaN != NaN), and returns the
// stored output on a match. Any other input, such as one an injected bit
// flip corrupted, runs the unchanged kernel. A nil reference always
// computes.
//
// Ownership: nobody writes a reference slice or a reference's bytes, and
// the program hands them around without copying. A hit returns the
// reference's own slice; World.Send passes it to the peer rank as is;
// nominalImage returns the reference image itself, and the FFT scratch is
// the reference's zero slice. The files of a nominal run share the
// reference's bytes (sim.FS.Share), and a restart that reads them back
// gets the reference slices. Whatever the program exposes to injection is
// registered copy-on-write (sift.AppContext.RegisterHeapF64), so the first
// flip of a region copies it, and sim.FS.CorruptBit copies a shared file
// before flipping it: an injected fault never reaches the reference.

// nominalImage returns p's flat nominal image: the reference's own slice,
// or a fresh one when there is no reference.
func (r *reference) nominalImage(p Params) []float64 {
	if r == nil {
		return flatten(GenerateImage(p.ImageSize, p.Seed))
	}
	return r.image
}

// fftScratch returns a zero FFT work buffer of size floats: the
// reference's own when it fits, a fresh one otherwise.
func (r *reference) fftScratch(size int) []float64 {
	if r == nil || len(r.scratch) != size {
		return make([]float64, size)
	}
	return r.scratch
}

// decodeImage decodes the input file's bytes: the reference image itself
// when they are its encoding.
func (r *reference) decodeImage(data []byte) []float64 {
	if r != nil && bytes.Equal(data, r.input) {
		return r.image
	}
	return decodeF64s(data)
}

// featureFile returns the bytes of feature file f holding v: the
// reference's own when v is nominal feature f, a fresh encoding otherwise.
func (r *reference) featureFile(v []float64, f int) []byte {
	if r != nil && sameBits(v, r.features[f]) {
		return r.featBytes[f]
	}
	return encodeF64s(v)
}

// decodeFeature decodes feature file f: the reference's feature itself
// when data is its encoding.
func (r *reference) decodeFeature(data []byte, f int) []float64 {
	if r != nil && bytes.Equal(data, r.featBytes[f]) {
		return r.features[f]
	}
	return decodeF64s(data)
}

// outputFile returns the output file's bytes for features and labels: the
// reference's own when both are nominal, a fresh encoding otherwise.
func (r *reference) outputFile(features [][]float64, labels []int) []byte {
	if r.nominalFeatures(features) && slices.Equal(labels, r.labels) {
		return r.output
	}
	return encodeOutput(features, labels)
}

// filter is directional filter f of img, flattened.
func (r *reference) filter(img [][]float64, f int) ([]float64, error) {
	if r != nil && len(img) == r.n {
		hit := true
		for i, row := range img {
			if !sameBits(row, r.image[i*r.n:(i+1)*r.n]) {
				hit = false
				break
			}
		}
		if hit {
			return r.responses[f], nil
		}
	}
	resp, err := fft.DirectionalFilter(img, filterAngles[f], filterHalfWidth)
	if err != nil {
		return nil, err
	}
	return flatten(resp), nil
}

// smooth is the texture energy of the flat response raw of filter f.
func (r *reference) smooth(raw []float64, f int) []float64 {
	if r != nil && sameBits(raw, r.responses[f]) {
		return r.features[f]
	}
	return flatten(fft.SmoothEnergy(unflatten(raw, intSqrt(len(raw))), 2))
}

// cluster is kmeans(features, n, k).
func (r *reference) cluster(features [][]float64, n, k int) []int {
	if r != nil && n == r.n && k == r.clusters && r.nominalFeatures(features) {
		return r.labels
	}
	return kmeans(features, n, k)
}

// nominalFeatures reports whether features are bit-identical to the
// reference's three feature maps.
func (r *reference) nominalFeatures(features [][]float64) bool {
	return r != nil && len(features) == 3 &&
		sameBits(features[0], r.features[0]) &&
		sameBits(features[1], r.features[1]) &&
		sameBits(features[2], r.features[2])
}

// sameBits reports whether a and b hold the same float64 bit patterns. Two
// slices of one backing array and length are equal without a scan: nobody
// writes a reference slice, and a flipped copy has an array of its own.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
