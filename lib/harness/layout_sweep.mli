(** The Figs. 6-7 sweep: one solver run per CPU-core/NUMA-zone layout
    ({!Experiments.scaling_layouts}) and per protection preset, each
    preset's throughput set against native on the same layout. *)

type cell = { config : string; gflops : float; overhead : float }
type row = { layout : string; cells : cell list }

val run :
  (layout:Experiments.layout -> Covirt.Config.t -> float) -> row list
(** [run measure] calls [measure ~layout config] for every layout and
    preset, in paper order; [measure] returns GFLOP/s. *)

val table : row list -> Covirt_sim.Table.t

val worst_overhead : row list -> float
(** Worst overhead across every layout and non-native config. *)
