(** The benchmark's vocabulary: workloads, metric names and units, and
    how each metric is computed from a run.  Later changes name their
    claims with these names. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type workload = {
  wname : string;
  why : string;
  run : Outcome.opts -> Outcome.t;
}

val workloads : workload list
val end_to_end : metric list
val per_layer : metric list

val run_seconds : int

val valid_name : string -> bool
(** Starts with a letter or digit; at most 64 of letters, digits, [_],
    [.] and [-]. *)

val valid_unit : string -> bool

val end_to_end_values : Outcome.t -> (string * float) list
(** Every {!end_to_end} metric of an untraced run, in order. *)

val count_values : Outcome.t -> (string * float) list
(** The obs counts of a run with [opts.counts] set. *)

val per_layer_values :
  traced:Outcome.t ->
  untraced:Outcome.t ->
  gc:float * float ->
  (string * float) list
(** Every {!per_layer} metric, in order, from the span totals of the
    traced run (read from {!Span}), its counts and sim results, the
    traced-run GC deltas [(minor words, major collections)], and the
    untraced run for [obs.overhead_ratio]. *)

val result_json :
  correct:bool -> attempted:int -> failed:int -> metric list -> (string * float) list -> string
(** The one-line result object. *)

val benchmark_json : unit -> string
(** The canonical text of [BENCHMARK.json]. *)
