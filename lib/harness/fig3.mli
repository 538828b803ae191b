(** Fig. 3 — Selfish-Detour noise profiles per Covirt configuration.

    The paper plots detour events over time for each protection
    configuration and finds "little variation in their noise
    profiles".  We reproduce the same single-core runs and report, per
    configuration, the event count, total noise, noise fraction and
    the log-bucketed duration histogram. *)

type row = {
  config : string;
  detour_count : int;
  total_detour_us : float;
  noise_fraction : float;
  median_detour_us : float;
  max_detour_us : float;
  histogram : Covirt_sim.Histogram.t;
  detours : (float * float) list;  (** (at_us, duration_us) *)
}

val run : ?quick:bool -> ?seed:int -> ?domains:int -> unit -> row list
(** One row per preset configuration (native, none, mem, ipi,
    mem+ipi); [quick] shortens the probed interval.  Configurations
    run as fleet shards over [domains] domains (default
    [Covirt_fleet.Fleet.recommended_domains ()]); each leg is
    deterministic in (config, seed), so the rows are identical for any
    [domains]. *)

val table : row list -> Covirt_sim.Table.t
val histograms : row list -> string
(** Each configuration's log-bucketed detour-duration histogram, under
    a [-- config --] heading. *)

val scatter : row list -> duration_s:float -> string
(** ASCII rendering of the paper's actual plot: detour occurrences over
    time, magnitude encoded as . : * # (quartiles of the log range). *)
