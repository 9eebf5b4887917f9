package reesift

import (
	"fmt"
	"slices"
	"time"

	"reesift/internal/sift"
)

// Option configures a cluster (or the per-run environment of an
// Injection). Options validate their arguments when applied, so a bad
// value surfaces as an error from NewCluster rather than as a misbehaving
// run.
type Option func(*settings) error

// settings is what the options write: the environment configuration
// itself, plus what placement resolution needs once every option has
// applied — the seed, and whether the FTM and Heartbeat ARMOR placements
// were given explicitly. cfg.Nodes stays empty until a node option sets it.
type settings struct {
	cfg           sift.EnvConfig
	seed          int64
	ftmSet, hbSet bool
}

// defaultNodeNames returns the paper's 4-node testbed names for n == 4
// and generated names n1..nN otherwise.
func defaultNodeNames(n int) []string {
	if n == 4 {
		return []string{"node-a1", "node-a2", "node-b1", "node-b2"}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// WithSeed fixes the simulation seed. Identical options and seed produce
// an identical run.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithNodes provisions n cluster nodes. n == 4 uses the paper's testbed
// names (node-a1, node-a2, node-b1, node-b2); other sizes use n1..nN. At
// least two nodes are required so the FTM and the Heartbeat ARMOR can
// live on different nodes, and at most sift.MaxNodes, the FTM's node
// table bound.
func WithNodes(n int) Option {
	return func(s *settings) error {
		if n < 2 || n > sift.MaxNodes {
			return fmt.Errorf("reesift: WithNodes(%d): a SIFT cluster needs at least 2 nodes (FTM and Heartbeat ARMOR must be on different nodes) and at most %d nodes (the FTM's node table)", n, sift.MaxNodes)
		}
		s.cfg.Nodes = defaultNodeNames(n)
		return nil
	}
}

// WithNodeNames provisions the cluster with explicit hostnames: from 2
// to sift.MaxNodes of them, each at most sift.MaxHostname bytes.
func WithNodeNames(names ...string) Option {
	return func(s *settings) error {
		if len(names) < 2 || len(names) > sift.MaxNodes {
			return fmt.Errorf("reesift: WithNodeNames: a SIFT cluster needs at least 2 nodes and at most %d nodes (the FTM's node table), got %d", sift.MaxNodes, len(names))
		}
		seen := make(map[string]bool, len(names))
		for _, name := range names {
			if name == "" {
				return fmt.Errorf("reesift: WithNodeNames: empty hostname")
			}
			if len(name) > sift.MaxHostname {
				return fmt.Errorf("reesift: WithNodeNames: hostname %q is %d bytes, at most %d", name, len(name), sift.MaxHostname)
			}
			if seen[name] {
				return fmt.Errorf("reesift: WithNodeNames: duplicate hostname %q", name)
			}
			seen[name] = true
		}
		s.cfg.Nodes = append([]string(nil), names...)
		return nil
	}
}

// WithFTMNode places the Fault Tolerance Manager on the named node. The
// node must be part of the cluster and must differ from the Heartbeat
// ARMOR's node.
func WithFTMNode(name string) Option {
	return func(s *settings) error {
		if name == "" {
			return fmt.Errorf("reesift: WithFTMNode: empty hostname")
		}
		s.cfg.FTMNode, s.ftmSet = name, true
		return nil
	}
}

// WithHeartbeatNode places the Heartbeat ARMOR on the named node. The
// node must be part of the cluster and must differ from the FTM's node
// (the Heartbeat ARMOR exists to detect FTM failures from the outside).
func WithHeartbeatNode(name string) Option {
	return func(s *settings) error {
		if name == "" {
			return fmt.Errorf("reesift: WithHeartbeatNode: empty hostname")
		}
		s.cfg.HeartbeatNode, s.hbSet = name, true
		return nil
	}
}

// WithHeartbeatPeriod sets both heartbeat periods (FTM-to-daemon and
// Heartbeat-ARMOR-to-FTM) to d — the paper's Table 5 sweep knob.
func WithHeartbeatPeriod(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithHeartbeatPeriod(%v): period must be positive", d)
		}
		s.cfg.FTMHeartbeatPeriod = d
		s.cfg.HeartbeatArmorPeriod = d
		return nil
	}
}

// WithFTMHeartbeatPeriod sets only the FTM-to-daemon heartbeat period.
func WithFTMHeartbeatPeriod(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithFTMHeartbeatPeriod(%v): period must be positive", d)
		}
		s.cfg.FTMHeartbeatPeriod = d
		return nil
	}
}

// WithHeartbeatArmorPeriod sets only the Heartbeat-ARMOR-to-FTM period.
func WithHeartbeatArmorPeriod(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithHeartbeatArmorPeriod(%v): period must be positive", d)
		}
		s.cfg.HeartbeatArmorPeriod = d
		return nil
	}
}

// WithDaemonAYAPeriod sets the daemon-to-local-ARMOR are-you-alive
// polling period.
func WithDaemonAYAPeriod(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithDaemonAYAPeriod(%v): period must be positive", d)
		}
		s.cfg.DaemonAYAPeriod = d
		return nil
	}
}

// WithInstallDelay models the daemon's fork-based process installation
// time (the dominant part of the ~0.5 s ARMOR recovery time).
func WithInstallDelay(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithInstallDelay(%v): delay must be positive", d)
		}
		s.cfg.InstallDelay = d
		return nil
	}
}

// WithAppStartDelay models application process startup (exec, linking,
// MPI initialization).
func WithAppStartDelay(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("reesift: WithAppStartDelay(%v): delay must be positive", d)
		}
		s.cfg.AppStartDelay = d
		return nil
	}
}

// WithSCCCommandDelay spaces the SCC's initialization commands. Zero is
// allowed (no setup phase); negative is not.
func WithSCCCommandDelay(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return fmt.Errorf("reesift: WithSCCCommandDelay(%v): delay must not be negative", d)
		}
		s.cfg.SCCCommandDelay = d
		return nil
	}
}

// WithSharedCheckpoints commits microcheckpoints to the cluster-wide
// nonvolatile store instead of each node's local RAM disk — the paper's
// Section 3.4 requirement for tolerating node failures.
func WithSharedCheckpoints() Option {
	return func(s *settings) error {
		s.cfg.SharedCheckpoints = true
		return nil
	}
}

// WithoutSelfChecks disables every element assertion — the ablation of
// the paper's claim that assertions plus microcheckpointing prevent
// system failures.
func WithoutSelfChecks() Option {
	return func(s *settings) error {
		s.cfg.DisableSelfChecks = true
		return nil
	}
}

// WithoutBootAgent disables the recovery subsystem: restarted nodes
// come back with an empty process table and no daemon — the original
// testbed's behaviour, kept as an ablation. With the boot agent enabled
// (the default), the SCC reinstalls the daemon on every restarted node
// and re-registers the processes its placement table puts there.
func WithoutBootAgent() Option {
	return func(s *settings) error {
		s.cfg.DisableBootAgent = true
		return nil
	}
}

// WithoutEpochs disables incarnation epochs on ARMOR identity — the
// ablation of the split-brain reconciliation. Without epochs a healed
// one-sided partition leaves duplicate recoverers, and the stale
// Heartbeat ARMOR falsely re-recovers the FTM in a loop (generally a
// system failure); the split-brain scenario pins both behaviours.
func WithoutEpochs() Option {
	return func(s *settings) error {
		s.cfg.DisableEpochs = true
		return nil
	}
}

// WithSpreadPlacement places application ranks (and their Execution
// ARMORs) on the least-loaded nodes at submission time instead of
// round-robin over the application's declared node list, and keeps them
// off the FTM's node. Placement depends only on the configuration and
// submission order, so runs stay deterministic. This is the policy the
// large-cluster scale scenario uses: with hundreds of nodes and dozens
// of applications, round-robin over short per-app node lists would pile
// every rank onto a handful of hosts.
func WithSpreadPlacement() Option {
	return func(s *settings) error {
		s.cfg.SpreadPlacement = true
		return nil
	}
}

// WithScopedLocationBroadcast limits submit-time ARMOR location
// announcements to the daemons that actually route traffic for the
// submission (the application's rank nodes plus the FTM's node) instead
// of every daemon in the cluster. Recovery-time announcements stay
// cluster-wide. On a 1000-node cluster this turns an O(nodes × ranks)
// submission burst into O(ranks²).
func WithScopedLocationBroadcast() Option {
	return func(s *settings) error {
		s.cfg.ScopedLocationBroadcast = true
		return nil
	}
}

// WithDaemonRebind lets application processes re-resolve their local
// daemon's address on every SIFT-interface send and re-attach when the
// daemon was reinstalled underneath them. It closes a relaunch-versus-
// reinstall race on the boot-agent recovery path: a rank relaunched
// between node-up and the daemon reinstall binds the dead incarnation's
// address and wedges undetected. The window is a few hundred
// milliseconds per restart, so it effectively only fires under the
// scale scenario's load; the default (off) preserves the paper
// testbed's behaviour.
func WithDaemonRebind() Option {
	return func(s *settings) error {
		s.cfg.DaemonRebind = true
		return nil
	}
}

// WithRegistrationRace reintroduces the Figure 10 registration race
// (install the Execution ARMOR before registering it in the FTM's
// table). The paper's final configuration — and this package's default —
// has the race fixed.
func WithRegistrationRace() Option {
	return func(s *settings) error {
		s.cfg.FixRegistrationRace = false
		return nil
	}
}

// buildConfig applies the options and resolves them into a validated
// environment configuration plus the simulation seed.
func buildConfig(opts []Option) (sift.EnvConfig, int64, error) {
	return buildConfigNodes(opts, 4)
}

// buildConfigNodes is buildConfig with a caller-chosen default node
// count, used by the injection façade to match the multi-application
// testbed when no node option is given.
func buildConfigNodes(opts []Option, defaultNodes int) (sift.EnvConfig, int64, error) {
	s := &settings{cfg: sift.DefaultEnvConfig(), seed: 1}
	s.cfg.Nodes = nil
	for _, opt := range opts {
		if opt == nil {
			return sift.EnvConfig{}, 0, fmt.Errorf("reesift: nil Option")
		}
		if err := opt(s); err != nil {
			return sift.EnvConfig{}, 0, err
		}
	}
	cfg := s.cfg
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = defaultNodeNames(defaultNodes)
	}
	placed := sift.DefaultEnvConfig(cfg.Nodes...)
	if !s.ftmSet {
		cfg.FTMNode = placed.FTMNode
	} else if !slices.Contains(cfg.Nodes, cfg.FTMNode) {
		return sift.EnvConfig{}, 0, fmt.Errorf("reesift: FTM node %q is not in the cluster %v", cfg.FTMNode, cfg.Nodes)
	}
	if !s.hbSet {
		cfg.HeartbeatNode = placed.HeartbeatNode
	} else if !slices.Contains(cfg.Nodes, cfg.HeartbeatNode) {
		return sift.EnvConfig{}, 0, fmt.Errorf("reesift: Heartbeat node %q is not in the cluster %v", cfg.HeartbeatNode, cfg.Nodes)
	}
	// An explicit placement colliding with the *default* position of the
	// other process relocates the defaulted one; only an explicit double
	// booking is a conflict (checked below).
	if s.ftmSet && !s.hbSet && cfg.HeartbeatNode == cfg.FTMNode {
		for _, n := range cfg.Nodes {
			if n != cfg.FTMNode {
				cfg.HeartbeatNode = n
				break
			}
		}
	}
	if s.hbSet && !s.ftmSet && cfg.FTMNode == cfg.HeartbeatNode {
		for _, n := range cfg.Nodes {
			if n != cfg.HeartbeatNode {
				cfg.FTMNode = n
				break
			}
		}
	}
	if cfg.FTMNode == cfg.HeartbeatNode {
		return sift.EnvConfig{}, 0, fmt.Errorf("reesift: the FTM and the Heartbeat ARMOR must be on different nodes (both on %q): the Heartbeat ARMOR exists to detect FTM failures externally", cfg.FTMNode)
	}
	return cfg, s.seed, nil
}
