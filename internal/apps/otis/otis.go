// Package otis implements the Orbiting Thermal Imaging Spectrometer
// application of Section 2: it extracts land surface temperature and
// emissivity from thermal images, compensating for atmospheric distortion,
// and compresses the product for downlink.
//
// The pipeline has four phases — sensor calibration, atmospheric
// correction, temperature/emissivity separation, and compression — run
// across two MPI ranks. Two properties matter to the fault-injection
// campaigns:
//
//   - OTIS creates its progress indicators only after the calibration
//     phase, so a hang injected earlier is invisible to the Execution
//     ARMOR (the two SIGSTOP system failures of Section 8);
//   - it runs ~2.5x longer than the texture analysis program, providing
//     the added load for the two-application experiments (Table 11).
package otis

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"reesift/internal/mpi"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// Params configures the OTIS pipeline.
type Params struct {
	// GridSize is the square thermal image side.
	GridSize int
	// CalibrateTime, CorrectTime, RetrieveTime, CompressTime are the
	// virtual durations of the four phases.
	CalibrateTime time.Duration
	CorrectTime   time.Duration
	RetrieveTime  time.Duration
	CompressTime  time.Duration
	// ChunkTime slices the long phases into work units; one progress
	// indicator is sent per chunk.
	ChunkTime time.Duration
	// Seed generates the synthetic thermal scene.
	Seed int64
	// TempTolerance is the mean absolute retrieval error (kelvin)
	// accepted by the verifier.
	TempTolerance float64
}

// DefaultParams yields an actual execution time near the paper's ~190 s
// (Table 11).
func DefaultParams() Params {
	return Params{
		GridSize:      64,
		CalibrateTime: 30 * time.Second,
		CorrectTime:   70 * time.Second,
		RetrieveTime:  60 * time.Second,
		CompressTime:  20 * time.Second,
		ChunkTime:     10 * time.Second,
		Seed:          2,
		TempTolerance: 1.0,
	}
}

// Physical model constants (simplified single-band radiometry; the
// numbers are arbitrary but self-consistent).
const (
	sigma = 5.670374419e-8 // Stefan-Boltzmann
	// Atmospheric ground truth used by the scene generator; the
	// calibration phase must recover these from reference pixels.
	trueTau     = 0.82
	trueUpwell  = 9.5
	trueTau2    = 0.88
	trueUpwell2 = 6.0
	// Emissivity classes of the scene's two materials.
	emisRock = 0.95
	emisSand = 0.76
)

// Spec builds the OTIS submission.
func Spec(id sift.AppID, nodes []string, p Params) *sift.AppSpec {
	spec := &sift.AppSpec{
		ID:              id,
		Name:            "otis",
		Ranks:           2,
		Nodes:           nodes,
		PIPeriod:        p.ChunkTime,
		PICreateDelay:   p.CalibrateTime,
		MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) { run(ac, spec, p) }
	return spec
}

// Paths on shared stable storage.
func InputPath(id sift.AppID) string  { return fmt.Sprintf("otis/%d/input", id) }
func OutputPath(id sift.AppID) string { return fmt.Sprintf("otis/%d/output", id) }

// Scene is the synthetic ground truth.
type Scene struct {
	N        int
	Temp     []float64 // true surface temperature (K)
	Emis     []float64 // true emissivity
	Radiance []float64 // at-sensor band-1 radiance after atmosphere
	// Radiance2 is the second spectral band; the band ratio separates
	// the materials independently of temperature (the essence of real
	// temperature/emissivity separation).
	Radiance2 []float64
}

// GenerateScene builds a deterministic thermal scene: a latitudinal
// temperature gradient, volcanic hotspots, and two surface materials.
func GenerateScene(n int, seed int64) *Scene {
	s := &Scene{N: n}
	s.Temp = make([]float64, n*n)
	s.Emis = make([]float64, n*n)
	s.Radiance = make([]float64, n*n)
	s.Radiance2 = make([]float64, n*n)
	rng := seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(uint64(rng)>>11) / float64(1<<53)
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			t := 260 + 40*float64(r)/float64(n) // gradient
			// Hotspots.
			for _, h := range [][2]int{{n / 4, n / 4}, {3 * n / 4, n / 2}} {
				dr, dc := float64(r-h[0]), float64(c-h[1])
				t += 25 * math.Exp(-(dr*dr+dc*dc)/18)
			}
			t += 0.5 * (next() - 0.5)
			s.Temp[i] = t
			if (r/8+c/8)%2 == 0 {
				s.Emis[i] = emisRock
			} else {
				s.Emis[i] = emisSand
			}
			surface := s.Emis[i] * sigma * t * t * t * t
			s.Radiance[i] = trueTau*surface + trueUpwell
			surface2 := math.Sqrt(s.Emis[i]) * sigma * t * t * t * t
			s.Radiance2[i] = trueTau2*surface2 + trueUpwell2
		}
	}
	return s
}

// Calibrate estimates per-band atmospheric transmittance and upwelling
// radiance from two reference pixels with known surface radiance (the
// paper's algorithm "to compensate for atmospheric distortions").
func Calibrate(s *Scene) (tau, upwell, tau2, upwell2 float64) {
	// Reference pixels: index 0 and the hottest pixel give two
	// equations L_obs = tau*L_surf + up per band.
	i0, i1 := 0, 0
	for i, t := range s.Temp {
		if t > s.Temp[i1] {
			i1 = i
		}
	}
	solve := func(obs []float64, e0, e1 float64) (float64, float64) {
		l0 := e0 * sigma * math.Pow(s.Temp[i0], 4)
		l1 := e1 * sigma * math.Pow(s.Temp[i1], 4)
		if l1 == l0 {
			return 1, 0
		}
		t := (obs[i1] - obs[i0]) / (l1 - l0)
		return t, obs[i0] - t*l0
	}
	tau, upwell = solve(s.Radiance, s.Emis[i0], s.Emis[i1])
	tau2, upwell2 = solve(s.Radiance2, math.Sqrt(s.Emis[i0]), math.Sqrt(s.Emis[i1]))
	return tau, upwell, tau2, upwell2
}

// Correct inverts the atmosphere over a pixel range.
func Correct(radiance []float64, tau, upwell float64, lo, hi int) []float64 {
	out := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = (radiance[i] - upwell) / tau
	}
	return out
}

// Retrieve separates temperature and emissivity for corrected surface
// radiances in two bands: the band ratio identifies the material class
// independently of temperature, then the temperature follows from the
// Stefan-Boltzmann inversion in band 1.
func Retrieve(surface, surface2 []float64) (temp, emis []float64) {
	temp = make([]float64, len(surface))
	emis = make([]float64, len(surface))
	for i := range surface {
		ratio := surface[i] / math.Max(surface2[i], 1e-12) // ~ sqrt(emissivity) // = sqrt(emissivity)
		bestE, bestD := emisRock, math.MaxFloat64
		for _, e := range []float64{emisRock, emisSand} {
			d := math.Abs(ratio - math.Sqrt(e))
			if d < bestD {
				bestE, bestD = e, d
			}
		}
		emis[i] = bestE
		temp[i] = math.Pow(math.Max(surface[i], 1e-9)/(bestE*sigma), 0.25)
	}
	return temp, emis
}

// Quantize maps temperatures to bytes over [230, 340] K.
func Quantize(temp []float64) []byte {
	out := make([]byte, len(temp))
	for i, t := range temp {
		q := math.Round((t - 230) / (340 - 230) * 255)
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		out[i] = byte(q)
	}
	return out
}

// Dequantize inverts Quantize (to quantization precision).
func Dequantize(q []byte) []float64 {
	out := make([]float64, len(q))
	for i, b := range q {
		out[i] = 230 + float64(b)/255*(340-230)
	}
	return out
}

// RLE compresses a byte stream with run-length encoding (the paper's
// "algorithm for data compression" stand-in).
func RLE(data []byte) []byte {
	var out []byte
	for i := 0; i < len(data); {
		j := i
		for j < len(data) && data[j] == data[i] && j-i < 255 {
			j++
		}
		out = append(out, byte(j-i), data[i])
		i = j
	}
	return out
}

// UnRLE decompresses RLE output.
func UnRLE(data []byte) ([]byte, error) {
	if len(data)%2 != 0 {
		return nil, fmt.Errorf("otis: odd RLE stream")
	}
	var out []byte
	for i := 0; i < len(data); i += 2 {
		n := int(data[i])
		if n == 0 {
			return nil, fmt.Errorf("otis: zero-length run")
		}
		for j := 0; j < n; j++ {
			out = append(out, data[i+1])
		}
	}
	return out, nil
}

// run is one OTIS MPI rank.
func run(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	if ac.Rank == 0 {
		runMaster(ac, spec, p)
	} else {
		runWorker(ac, spec, p)
	}
}

func sleepChunks(ac *sift.AppContext, total, chunk time.Duration, progress func()) {
	for elapsed := time.Duration(0); elapsed < total; elapsed += chunk {
		d := chunk
		if total-elapsed < chunk {
			d = total - elapsed
		}
		ac.Proc.Sleep(d)
		ac.Step()
		if progress != nil {
			progress()
		}
	}
}

func runMaster(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	peer := ac.SpawnRank(spec.Nodes[1%len(spec.Nodes)], 1)
	ac.SendPIDs(map[int]sim.PID{1: peer})
	world, err := mpi.NewLeader(ac, uint64(spec.ID), 2, map[int]sim.PID{1: peer}, spec.MPIStartTimeout)
	if err != nil {
		ac.Proc.Exit(4, "mpi startup: "+err.Error())
	}

	fs := ac.SharedFS()
	scene := loadOrGenerate(fs, spec.ID, p)
	ac.RegisterHeapF64("radiance", &scene.Radiance)
	n2 := scene.N * scene.N
	half := n2 / 2
	sizeField := scene.N
	ac.RegisterHeapInt("gridSize", &sizeField)

	// Phase 1: calibration — before progress indicators exist, so hangs
	// here are invisible to the SIFT environment.
	sleepChunks(ac, p.CalibrateTime, p.ChunkTime, nil)
	tau, upwell, tau2, upwell2 := Calibrate(scene)
	ac.PICreate(p.ChunkTime)
	counter := uint64(0)
	tick := func() { counter++; ac.Progress(counter) }

	// Phase 2: atmospheric correction, split between the ranks.
	header := []float64{tau, upwell, tau2, upwell2, float64(half), float64(n2)}
	payload := append(header, append(append([]float64(nil), scene.Radiance...), scene.Radiance2...)...)
	world.Send(1, "correct", payload)
	surface := make([]float64, n2)
	surface2 := make([]float64, n2)
	copy(surface[:half], Correct(scene.Radiance, tau, upwell, 0, half))
	copy(surface2[:half], Correct(scene.Radiance2, tau2, upwell2, 0, half))
	sleepChunks(ac, p.CorrectTime, p.ChunkTime, tick)
	theirHalf, rerr := world.Recv(1, "corrected", 30*time.Minute)
	if rerr != nil || len(theirHalf) != 2*(n2-half) {
		ac.Proc.Exit(6, "correction exchange failed")
	}
	copy(surface[half:], theirHalf[:n2-half])
	copy(surface2[half:], theirHalf[n2-half:])

	// Phase 3: temperature/emissivity separation.
	temp, emis := Retrieve(surface, surface2)
	ac.RegisterHeapF64("temperature", &temp)
	sleepChunks(ac, p.RetrieveTime, p.ChunkTime, tick)

	// Phase 4: compression and downlink product.
	q := Quantize(temp)
	compressed := RLE(q)
	sleepChunks(ac, p.CompressTime, p.ChunkTime, tick)
	writeOutput(fs, spec.ID, compressed, emis)

	world.Send(1, "done", nil)
	ac.NotifyExiting()
}

func runWorker(ac *sift.AppContext, spec *sift.AppSpec, p Params) {
	if !ac.WaitChannelOpen(15 * time.Second) {
		ac.Proc.Exit(3, "channel open timeout")
	}
	world, err := mpi.JoinWorker(ac, uint64(spec.ID), 1, spec.MPIStartTimeout)
	if err != nil {
		ac.Proc.Exit(4, "mpi join: "+err.Error())
	}
	// The worker has nothing to report until the master ships it work:
	// like the real OTIS, its progress indicators are created only once
	// the coupled pipeline starts. A master hung during calibration
	// therefore leaves *no* rank with live indicators — the condition
	// behind the paper's two SIGSTOP system failures (Section 8).
	msg, rerr := world.Recv(0, "correct", 30*time.Minute)
	if rerr != nil {
		ac.Proc.Exit(6, "correction exchange: "+rerr.Error())
	}
	ac.PICreate(p.ChunkTime)
	counter := uint64(0)
	tick := func() { counter++; ac.Progress(counter) }
	tau, upwell, tau2, upwell2 := msg[0], msg[1], msg[2], msg[3]
	half, n2 := int(msg[4]), int(msg[5])
	if len(msg) != 6+2*n2 || half < 0 || half > n2 {
		ac.Proc.Exit(6, "correction payload malformed")
	}
	radiance := msg[6 : 6+n2]
	radiance2 := msg[6+n2:]
	ac.RegisterHeapF64("radiance-half", &radiance)
	out := Correct(radiance, tau, upwell, half, n2)
	out2 := Correct(radiance2, tau2, upwell2, half, n2)
	sleepChunks(ac, p.CorrectTime, p.ChunkTime, tick)
	world.Send(0, "corrected", append(out, out2...))

	// Idle through the master's retrieval/compression with indicators.
	sleepChunks(ac, p.RetrieveTime+p.CompressTime, p.ChunkTime, tick)
	_, _ = world.Recv(0, "done", 30*time.Minute)
	ac.NotifyExiting()
}

func loadOrGenerate(fs *sim.FS, id sift.AppID, p Params) *Scene {
	if data, err := fs.Read(InputPath(id)); err == nil {
		if s := decodeScene(data); s != nil {
			return s
		}
	}
	s := GenerateScene(p.GridSize, p.Seed)
	fs.Write(InputPath(id), encodeScene(s))
	return s
}

func encodeScene(s *Scene) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(s.N))
	for _, arr := range [][]float64{s.Temp, s.Emis, s.Radiance, s.Radiance2} {
		for _, v := range arr {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func decodeScene(data []byte) *Scene {
	if len(data) < 4 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n <= 0 || n > 4096 {
		return nil
	}
	need := 4 + 4*8*n*n
	if len(data) != need {
		return nil
	}
	s := &Scene{N: n}
	off := 4
	read := func() []float64 {
		out := make([]float64, n*n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		return out
	}
	s.Temp = read()
	s.Emis = read()
	s.Radiance = read()
	s.Radiance2 = read()
	return s
}

func writeOutput(fs *sim.FS, id sift.AppID, compressed []byte, emis []float64) {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(compressed)))
	out = append(out, compressed...)
	for _, e := range emis {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e))
	}
	fs.Write(OutputPath(id), out)
}

// Output is the parsed downlink product.
type Output struct {
	Temp []float64
	Emis []float64
}

// ReadOutput decompresses and parses the product.
func ReadOutput(fs *sim.FS, id sift.AppID) (*Output, error) {
	data, err := fs.Read(OutputPath(id))
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("otis: truncated output")
	}
	clen := int(binary.LittleEndian.Uint32(data))
	if clen < 0 || 4+clen > len(data) {
		return nil, fmt.Errorf("otis: corrupt output header")
	}
	q, err := UnRLE(data[4 : 4+clen])
	if err != nil {
		return nil, err
	}
	out := &Output{Temp: Dequantize(q)}
	rest := data[4+clen:]
	for i := 0; i+8 <= len(rest); i += 8 {
		out.Emis = append(out.Emis, math.Float64frombits(binary.LittleEndian.Uint64(rest[i:])))
	}
	return out, nil
}

// Verdict classifies a run's output (same scheme as the rover verifier).
type Verdict int

// Verdicts.
const (
	VerdictCorrect Verdict = iota + 1
	VerdictIncorrect
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

// Verify checks the retrieved temperature field against the scene ground
// truth within the mean-absolute-error tolerance (quantization to 8 bits
// costs ~0.2 K, well inside the default 1 K budget).
func Verify(fs *sim.FS, id sift.AppID, truth *Scene, tolKelvin float64) Verdict {
	out, err := ReadOutput(fs, id)
	if err != nil {
		return VerdictMissing
	}
	if len(out.Temp) != len(truth.Temp) {
		return VerdictIncorrect
	}
	sum := 0.0
	for i := range truth.Temp {
		d := out.Temp[i] - truth.Temp[i]
		if math.IsNaN(d) {
			return VerdictIncorrect
		}
		sum += math.Abs(d)
	}
	if sum/float64(len(truth.Temp)) > tolKelvin {
		return VerdictIncorrect
	}
	return VerdictCorrect
}
