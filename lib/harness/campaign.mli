(** Randomized fault-injection campaign.

    The statistical version of the containment story: inject a random
    fault from the paper's taxonomy (wild writes at random addresses,
    phantom-map touches, errant IPIs with random vectors/destinations,
    MSR/port/abort events) into a fresh two-enclave stack, under each
    protection configuration, many times — and tabulate what happened:

    - {b contained}: the offending enclave was terminated (or the
      operation dropped) and nothing else was harmed;
    - {b node down}: the injected fault killed the simulated node;
    - {b collateral}: some other tenant was corrupted or crashed;
    - {b latent}: the fault executed with no detected consequence (a
      write to free memory — a time bomb).

    The expected shape: native contains nothing; each feature contains
    exactly its fault classes; the full configuration contains
    everything. *)

type row = {
  config : string;
  trials : int;
  contained : int;
  node_down : int;
  collateral : int;
  latent : int;
  sanitizer_flagged : int;
      (** trials in which the shadow sanitizer flagged at least one
          ownership violation; [0] when [sanitize] was off *)
}

val run :
  ?trials:int -> ?seed:int -> ?sanitize:bool -> ?domains:int -> unit -> row list
(** [trials] faults per configuration (default 60).  With [sanitize]
    (default [false]) every trial runs under the shadow sanitizer
    ([Covirt_hw.Sanitize]), so injected EPT/ownership corruption is
    {e detected by the analyzer} rather than merely observed as a
    crash or a latent time bomb; outcomes and the fault sequence are
    unchanged (the sanitizer charges nothing).

    Trials run as fleet shards over [domains] domains (default
    [Covirt_fleet.Fleet.recommended_domains ()]); each trial derives
    its fault and machine seeds from [Rng.split_seed ~seed ~index], and
    within a trial the same fault is replayed against every
    configuration.  Rows are a pure fold over trial order, so the
    table is byte-identical for any [domains]. *)

val table : row list -> Covirt_sim.Table.t
(** Adds a ["flagged"] column only when some row has
    [sanitizer_flagged > 0], keeping default output byte-identical. *)

val containment_rate : row -> float
