(** Experiment scaffolding shared by every figure runner.

    Reproduces the paper's testbed shape: a dual-socket node (two NUMA
    zones), 14 GB of enclave memory "spread across the two NUMA
    zones", and the four CPU-core/NUMA-zone layouts of Figs. 6-7.
    Each measurement builds a {e fresh} machine (seeded per run),
    attaches Covirt in the configuration under test, boots a Kitten
    enclave and hands the caller its contexts. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten

type layout = {
  layout_name : string;
  cores : int list;  (** machine core ids for the enclave *)
  mem : (Numa.zone * int) list;
}

val layout_1x1 : layout
(** 1 core, 1 NUMA zone, 14 GB local. *)

val layout_8x2 : layout
(** 8 cores split across 2 zones. *)

val scaling_layouts : layout list
(** The Fig. 6/7 sweep, in paper order. *)

type setup = {
  machine : Machine.t;
  hobbes : Covirt_hobbes.Hobbes.t;
  controller : Covirt.Controller.t;
  enclave : Enclave.t;
  kitten : Kitten.t;
  config : Covirt.Config.t;
}

val with_setup :
  config:Covirt.Config.t ->
  ?layout:layout ->
  ?seed:int ->
  ?timer_hz:float ->
  (setup -> 'a) ->
  'a
(** Build machine + Hobbes + Covirt (controller attached even for the
    native config — it simply declines to interpose), launch the
    enclave, run the body.  [layout] defaults to {!layout_1x1};
    [timer_hz] defaults to 10 (LWK tick). *)

val contexts : setup -> Kitten.context list
(** One context per enclave core, boot core first. *)

val table1 : (string * string * string) list
(** Benchmark name, version, parameters — the paper's Table I. *)

val enclave_mem_bytes : int
(** 14 GiB. *)
