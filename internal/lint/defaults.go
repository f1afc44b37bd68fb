package lint

// DefaultAnalyzers is the repository policy: the full analyzer registry,
// with the wallclock and durability scopes configured for this tree. The
// allowlist is the config seam for genuinely wall-clock code — prefer
// extending it (with a comment saying why) over sprinkling //lint:ignore
// when a whole file is legitimately real-time.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewWallclock(WallclockConfig{
			// The virtual-time packages: everything whose timing feeds the
			// paper's makespan/speedup numbers must read time from a
			// sim.Clock.
			Packages: []string{
				"internal/wei",
				"internal/fleet",
				"internal/core",
				"internal/solver",
				"internal/sim",
			},
			Allow: []string{
				// RealClock is the one component whose job is reading the
				// wall clock.
				"internal/sim/clock.go:RealClock.Now",
				"internal/sim/clock.go:RealClock.Sleep",
				// The registry health prober runs on real time by design:
				// it probes real HTTP servers with real backoff and real
				// downtime budgets.
				"internal/fleet/registry.go",
				// The churn harness kills and restarts real in-process HTTP
				// workcells on a wall-clock schedule.
				"internal/fleet/churn.go",
				// Chaos middleware injects real hangs and slowdowns into
				// HTTP handlers to exercise transport timeouts.
				"internal/wei/chaos.go",
			},
		}),
		NewDurability(DurabilityConfig{
			Packages: []string{"internal/portal"},
		}),
		NewGoroutineFatal(),
		NewSentinelCompare(),
		NewCtxDiscipline(),
		NewTestOnly(),
	}
}
