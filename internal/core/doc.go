// Package core implements the SG-ML Processor and the runtime it produces:
// the toolchain that parses SG-ML model files and "compiles" them into an
// operational cyber range (Fig 2 / Fig 3 of the paper), plus the engines
// that drive the compiled range — the deterministic step loop, the scenario
// scheduler and the campaign sweep executor.
//
// # Compiler (Fig 3 stages)
//
// Compile runs the stages in Fig 3 order: SSD/SCD merging
// (internal/sclmerge), power-system model generation from the SSD content
// (power.go), cyber network emulation model generation from the SCD
// communication section (network.go), virtual IED building from ICDs + IED
// Config XML, PLC instantiation from PLCopen XML, SCADA configuration from
// the SCADA Config JSON, and final assembly into a runnable CyberRange
// (range.go). Supplementary-XML power steps are validated against the
// generated grid at compile time, so a broken model fails with ErrModel
// before anything runs.
//
// # Step engine
//
// CyberRange.StepAll advances one simulation interval with the sharded
// one-pass engine (sched.go, shard.go): per-substation shards step their
// IEDs concurrently, writing trip commands straight to the kv bus. The pool
// is runtime.GOMAXPROCS for a compiled range and max(1, GOMAXPROCS /
// campaign workers) for a campaign run. The resulting kv-bus/HMI state is
// byte-identical to CyberRange.StepAllSequential, the single-threaded
// reference path kept as a test oracle (with WithSequential as its test-only
// RunScenario seam).
//
// # Scenario scheduler
//
// Scenario (scenario.go) is the typed event DSL: attacker placements plus
// trigger + action pairs executed by a deterministic scheduler woven into
// the step loop as pre/post hooks (SetStepHooks). RunScenario returns the
// structured RunReport (runreport.go) whose deterministic projection
// (Fingerprint) is identical across repeated runs for a fixed (model,
// scenario, seed), and against the reference engine and data plane.
//
// # Campaign engine
//
// Campaign (campaign.go) is the population form: a declarative sweep of
// scenario variants × seed lists, executed by RunCampaign on a bounded
// worker pool with one CyberRange forked per run from a compile-once root
// and the parsed ModelSet shared read-only. The aggregated CampaignReport
// (campaignreport.go) carries per-variant distributions (precision/recall,
// alert latency, solver cache hit rate, data-plane throughput, step-time
// quantiles) and the cross-seed determinism verdict: repeated (variant,
// seed) runs must reproduce identical fingerprints regardless of worker
// count or run ordering.
package core
