(** IPI transmission whitelist.

    The hypervisor "compare[s] the destination CPU and vector against
    a whitelist in order to verify that the IPI operation is
    permitted, and any errant IPIs are simply dropped".  Intra-enclave
    fixed IPIs are always permitted (the enclave owns those cores);
    cross-enclave doorbells require an explicit (vector, destination)
    grant, which the controller installs when Hobbes grants the
    vector.  INIT/SIPI/NMI never cross the enclave boundary. *)

open Covirt_hw

type t

val create : enclave_cores:int list -> t
val grant : t -> vector:int -> dest:int -> unit
val revoke : ?dest:int -> t -> vector:int -> unit
(** Remove the grant for [(vector, dest)] only; with [dest] omitted,
    remove every destination granted that vector.  Other grants are
    untouched — revoking one peer's doorbell must not kill the same
    vector granted to a different core. *)

val clear : t -> unit
(** Drop every grant (controller detach — no stale entries may outlive
    the controller that installed them). *)

val permits : t -> icr:Apic.icr -> bool
val note_dropped : t -> unit
val dropped : t -> int
val grants : t -> (int * int) list
(** Current (vector, dest) pairs. *)

(** {2 Reverse index}

    A controller links the whitelists of its live instances to one
    shared index, from destination core to the holders of a grant
    aimed at it.  Every change to a linked whitelist — through this
    module, whoever calls it — keeps the index exact. *)

type index

val index : unit -> index

val holders : index -> dest:int -> int list
(** Holder ids of the linked whitelists granting at least one vector
    to [dest], descending. *)

val link : t -> index -> holder:int -> unit
(** Index this whitelist's grants, current and future, under
    [holder]. *)

val unlink : t -> unit
(** Withdraw the grants from the index; the whitelist itself keeps
    them. *)
