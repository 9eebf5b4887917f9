package reesift

import (
	"reesift/internal/apps/otis"
	"reesift/internal/apps/rover"
)

// RoverApp builds the Mars Rover texture analysis submission (the
// paper's primary workload) with its default parameters, running its
// two ranks on the given nodes. With no nodes it uses the first two
// nodes of the default 4-node testbed.
func RoverApp(id AppID, nodes ...string) *AppSpec {
	if len(nodes) == 0 {
		nodes = []string{"node-a1", "node-a2"}
	}
	return rover.Spec(id, nodes, rover.DefaultParams())
}

// OTISApp builds the OTIS thermal imaging spectrometer submission (the
// paper's second workload, Section 8) with its default parameters.
func OTISApp(id AppID, nodes ...string) *AppSpec {
	if len(nodes) == 0 {
		nodes = []string{"node-b1", "node-b2"}
	}
	return otis.Spec(id, nodes, otis.DefaultParams())
}

// RoverVerdict classifies a RoverApp submission's segmentation output
// on the shared store against the reference pipeline: "correct",
// "incorrect", or "missing". It only applies to apps built by RoverApp
// (default parameters).
func RoverVerdict(fs *FS, id AppID) (string, error) {
	p := rover.DefaultParams()
	ref, err := rover.Reference(p)
	if err != nil {
		return "", err
	}
	return rover.Verify(fs, id, ref, p.Tolerance).String(), nil
}
