(** Fig. 6 — MiniFE scaling over CPU-core/NUMA-zone layouts.

    All four layouts x all five configurations.  Expected shape:
    Covirt imposes "little to no overhead ... across all
    configurations" — MiniFE's banded accesses never leave the
    prefetch window, and its sparse synchronization keeps
    interrupt-path costs invisible. *)

val run : ?quick:bool -> ?seed:int -> unit -> Layout_sweep.row list
