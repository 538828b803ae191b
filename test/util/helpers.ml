(* Shared scaffolding for the test suites. *)

open Covirt_hw

let mib = Covirt_sim.Units.mib
let gib = Covirt_sim.Units.gib

let small_machine ?(seed = 7) () =
  Machine.create ~seed ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(2 * gib)
    ~host_reserved_per_zone:(128 * mib) ()

(* A full co-kernel stack on a small machine: hobbes + optional covirt +
   one booted kitten enclave on cores 1 and 2 (core 0 is the host). *)
type stack = {
  machine : Machine.t;
  hobbes : Covirt_hobbes.Hobbes.t;
  controller : Covirt.Controller.t;
  enclave : Covirt_pisces.Enclave.t;
  kitten : Covirt_kitten.Kitten.t;
}

let boot_stack ?(seed = 7) ?(config = Covirt.Config.full) ?(cores = [ 1; 2 ])
    ?(mem = [ (0, 256 * mib); (1, 256 * mib) ]) () =
  let machine = small_machine ~seed () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let controller =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config
  in
  match
    Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"t0" ~cores ~mem ()
  with
  | Error e -> Alcotest.failf "boot_stack: %s" e
  | Ok (enclave, kitten) -> { machine; hobbes; controller; enclave; kitten }

let second_enclave stack ?(name = "t1") ?(cores = [ 3 ])
    ?(mem = [ (1, 128 * mib) ]) () =
  match Covirt_hobbes.Hobbes.launch_enclave stack.hobbes ~name ~cores ~mem () with
  | Error e -> Alcotest.failf "second_enclave: %s" e
  | Ok pair -> pair

let ctx stack core = Covirt_kitten.Kitten.context stack.kitten ~core

let pisces stack = Covirt_hobbes.Hobbes.pisces stack.hobbes

let check_region = Alcotest.testable Region.pp Region.equal

let expect_crash name f =
  match f () with
  | exception Vmx.Vm_terminated _ -> ()
  | _ -> Alcotest.failf "%s: expected Vm_terminated" name

let expect_panic name f =
  match f () with
  | exception Machine.Node_panic _ -> ()
  | _ -> Alcotest.failf "%s: expected Node_panic" name

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ?print ~name ~count gen prop)
