(** Fig. 7 — HPCG scaling over CPU-core/NUMA-zone layouts.

    Expected shape: "Covirt does impose minor overheads, but they stay
    consistent across Covirt feature configurations and varying
    hardware layout configurations ... in the worst case, Covirt only
    degrades HPCG's performance by 1.4%." *)

val run : ?quick:bool -> ?seed:int -> unit -> Layout_sweep.row list
