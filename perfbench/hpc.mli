(** [hpc-protected]: the paper's data plane.

    STREAM, RandomAccess (GUPS), HPCG, MiniFE and the four LAMMPS
    benchmarks at their full (non-quick) sizes, under every
    [Covirt.Config.presets] entry on the 1x1 and 8x2 layouts, each
    cell on a freshly built and booted node.  One op is one cell:
    node build, enclave boot, kernel run, teardown.  A window is one
    config's 16 cells in two contiguous shards; five windows make a
    pass of all 80 cells, and windows continue, config by config,
    until the budget is spent.  Every pass is identical in simulated
    time, so the simulated results come from pass one and later
    windows must reproduce them. *)

val kernels : string list
(** Kernel names in report order: hpcg, minife, lj, eam, chain, chute,
    stream, gups. *)

val run : Outcome.opts -> Outcome.t
