(** Exact order statistics over raw samples, host resource readings
    and the run fingerprint. *)

val quantile : float array -> p:float -> float
(** Linear-interpolated quantile ([p] in [0,100]) of the samples, as
    Python's [statistics.quantiles(method="inclusive")]; [nan] when
    empty.  Does not modify its argument. *)

val median : float array -> float

type buf
(** A growable buffer of samples. *)

val buf : unit -> buf
val push : buf -> float -> unit
val contents : buf -> float array

val peak_rss_mib : unit -> float
(** Host peak resident set ([VmHWM] of [/proc/self/status]) in MiB;
    [nan] when unavailable. *)

val fingerprint : seed:int -> domains:int -> string
(** One JSON object: nproc, OCaml version, domains, [OCAMLRUNPARAM],
    seed and commit (from [PERFBENCH_COMMIT], else ["unknown"]). *)

val now : unit -> float
(** Host monotonic clock, seconds, at nanosecond resolution. *)
