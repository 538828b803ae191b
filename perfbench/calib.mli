(** Host speed, measured beside the program.

    A shared host's speed drifts by tens of percent for seconds to
    minutes at a time, with its neighbours' load.  Host figures are
    therefore scaled by a fixed reference kernel timed between windows:
    a window that ran while the kernel took [reference_s] counts as
    measured, one that ran while it took twice as long counts at half
    its host time.  The kernel is the benchmark's own code and leaves
    the program's state alone, so a change to the program moves the
    scaled figures and never the kernel. *)

val reference_s : float
(** About the kernel's time, in seconds, on the host the bounds were
    set on (a 2-vCPU Xeon VM), where it ran in 1.7 to 2.3 ms.  Scaled
    figures are host figures on a host where the kernel takes this
    long. *)

val sample : unit -> float
(** The median host time of five runs of the kernel, in seconds, each
    on an empty minor heap.  The first call allocates the kernel's
    256 KiB of grids. *)

val minor_words : unit -> float
(** Words the kernel has allocated so far, for subtracting from the
    program's GC figures. *)
