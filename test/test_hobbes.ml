(* Hobbes runtime tests: launches, vector allocation, IPC channels,
   composite applications. *)

open Covirt_pisces
open Covirt_kitten
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let test_launch_wires_everything () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  Alcotest.(check bool) "kernel registered" true
    (Option.is_some (Covirt_hobbes.Hobbes.kernel_of s.Helpers.hobbes s.Helpers.enclave));
  (* host_poke wired: a forwarded syscall completes *)
  let ctx = Helpers.ctx s 1 in
  Alcotest.(check int) "forwarding works" 5
    (Kitten.syscall ctx ~number:Syscall.nr_read ~arg:5)

let test_vector_allocation () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let h = s.Helpers.hobbes in
  (match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
  | Ok v ->
      Alcotest.(check bool) "in app range" true (v >= 0x40 && v <= 0xdf);
      Covirt_hobbes.Hobbes.free_ipi_vector h v
  | Error e -> Alcotest.fail e);
  (* exhaust the space *)
  let rec drain n =
    match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
    | Ok _ -> drain (n + 1)
    | Error _ -> n
  in
  let got = drain 0 in
  Alcotest.(check int) "vector space size" 160 got

let test_grant_pair () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let b_enclave, _ = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Hobbes.grant_vector_pair s.Helpers.hobbes s.Helpers.enclave
      b_enclave
  with
  | Ok (va, vb) ->
      Alcotest.(check bool) "distinct" true (va <> vb);
      Alcotest.(check bool) "a granted" true
        (List.mem_assoc va s.Helpers.enclave.Enclave.granted_vectors);
      Alcotest.(check bool) "b granted" true
        (List.mem_assoc vb b_enclave.Enclave.granted_vectors)
  | Error e -> Alcotest.fail e

let test_ipc_channel () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let cons_enclave, cons_kitten = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Ipc.connect s.Helpers.hobbes
      ~producer:(s.Helpers.enclave, s.Helpers.kitten)
      ~consumer:(cons_enclave, cons_kitten)
      ~name:"test-ring" ~ring_bytes:(64 * 1024)
  with
  | Error e -> Alcotest.fail e
  | Ok channel ->
      let ctx = Helpers.ctx s 1 in
      Covirt_hobbes.Ipc.send channel ctx ~words:16;
      Covirt_hobbes.Ipc.send channel ctx ~words:16;
      Alcotest.(check int) "doorbells received" 2
        (Covirt_hobbes.Ipc.receipts channel)

let test_ipc_under_covirt_whitelist () =
  (* The same channel built under full protection: the granted doorbell
     passes the whitelist, so IPC is unimpeded (zero-overhead IPC). *)
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  let cons_enclave, cons_kitten = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Ipc.connect s.Helpers.hobbes
      ~producer:(s.Helpers.enclave, s.Helpers.kitten)
      ~consumer:(cons_enclave, cons_kitten)
      ~name:"prot-ring" ~ring_bytes:(64 * 1024)
  with
  | Error e -> Alcotest.fail e
  | Ok channel ->
      let ctx = Helpers.ctx s 1 in
      Covirt_hobbes.Ipc.send channel ctx ~words:8;
      Alcotest.(check int) "delivered through whitelist" 1
        (Covirt_hobbes.Ipc.receipts channel);
      Alcotest.(check int) "nothing dropped" 0
        (Covirt.dropped_ipis s.Helpers.controller
           ~enclave_id:s.Helpers.enclave.Enclave.id)

let test_app_composition () =
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  let sink_enclave, _sink_kitten = Helpers.second_enclave s () in
  let produced = ref 0 in
  let app =
    {
      Covirt_hobbes.App.app_name = "sim-pipeline";
      components =
        [
          Covirt_hobbes.App.component ~name:"producer" s.Helpers.enclave
            (fun ctx channels ->
              List.iter
                (fun ch ->
                  Covirt_hobbes.Ipc.send ch ctx ~words:32;
                  incr produced)
                channels);
          Covirt_hobbes.App.component ~name:"consumer" sink_enclave
            (fun _ctx _channels -> ());
        ];
      wires =
        [
          {
            Covirt_hobbes.App.from_component = "producer";
            to_component = "consumer";
            ring_bytes = 16 * 1024;
          };
        ];
    }
  in
  (match Covirt_hobbes.App.launch s.Helpers.hobbes app with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "producer ran" 1 !produced

let test_app_unknown_component () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let app =
    {
      Covirt_hobbes.App.app_name = "broken";
      components = [];
      wires =
        [
          {
            Covirt_hobbes.App.from_component = "ghost";
            to_component = "ghost2";
            ring_bytes = 4096;
          };
        ];
    }
  in
  Alcotest.(check bool) "launch fails" true
    (Result.is_error (Covirt_hobbes.App.launch s.Helpers.hobbes app));
  ignore mib

(* ------------------------------------------------------------------ *)
(* Keyed teardown registries.                                          *)

module Hobbes = Covirt_hobbes.Hobbes
module Xemem = Covirt_xemem.Xemem
module Name_service = Covirt_xemem.Name_service

(* A small node with Covirt: 2 zones x 4 cores, core 0 for the host. *)
type node = {
  h : Hobbes.t;
  ctl : Covirt.Controller.t;
  mutable launched : int;
  mutable exports : int;
}

let small_node () =
  let h = Hobbes.create_node ~cores_per_zone:4 ~mem_mib_per_zone:512 () in
  { h; ctl = Covirt.enable (Hobbes.pisces h) ~config:Covirt.Config.full;
    launched = 0; exports = 0 }

let ncores = 8
let live n = Pisces.enclaves (Hobbes.pisces n.h)
let pick l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

(* The application-IPI pool, in allocation order, read by draining it
   and freeing back in reverse (which restores the list exactly). *)
let pool h =
  let rec drain acc =
    match Hobbes.alloc_ipi_vector h with Ok v -> drain (v :: acc) | Error _ -> acc
  in
  let taken = drain [] in
  List.iter (Hobbes.free_ipi_vector h) taken;
  List.rev taken

(* Every reverse index equals its brute-force recomputation. *)
let indexes_agree n =
  let ps = Hobbes.pisces n.h in
  let enclaves = live n in
  let registry = Xemem.registry (Hobbes.xemem n.h) in
  let segments = Name_service.segments registry in
  let instances = Covirt.Controller.instances n.ctl in
  let ids l = List.map (fun (e : Enclave.t) -> e.Enclave.id) l in
  let cores = List.init (ncores + 2) Fun.id in
  List.for_all
    (fun core ->
      List.map (fun ((e : Enclave.t), v) -> (e.Enclave.id, v)) (Pisces.grants_to ps ~core)
      = List.concat_map
          (fun (e : Enclave.t) ->
            List.filter_map
              (fun (v, d) -> if d = core then Some (e.Enclave.id, v) else None)
              e.Enclave.granted_vectors)
          enclaves
      && List.map
           (fun (i : Covirt.Controller.instance) -> i.enclave.Enclave.id)
           (Covirt.Controller.granting_to n.ctl ~core)
         = List.filter_map
             (fun (i : Covirt.Controller.instance) ->
               if List.exists (fun (_, d) -> d = core) (Covirt.Whitelist.grants i.whitelist)
               then Some i.enclave.Enclave.id
               else None)
             instances)
    cores
  && List.for_all
       (fun v ->
         Pisces.vector_holders ps v
         = List.length
             (List.concat_map
                (fun (e : Enclave.t) ->
                  List.filter (fun (v', _) -> v' = v) e.Enclave.granted_vectors)
                enclaves))
       (List.init 256 Fun.id)
  && List.for_all
       (fun id ->
         Name_service.segids_of registry ~enclave:id
         = List.filter_map
             (fun (s : Name_service.segment) ->
               if s.exporter = Name_service.Enclave_export id || List.mem id s.attachers
               then Some s.segid
               else None)
             segments)
       (List.init (n.launched + 1) Fun.id)
  && ids (Pisces.enclaves ps) = List.sort (fun a b -> compare b a) (ids enclaves)

(* What the full-registry scrub did to the vector pool, to every
   survivor's grants and whitelist, and to the segments, replayed on
   plain data captured before the destroy. *)
let predict_scrub n (dead : Enclave.t) =
  let app v = v >= 0x40 && v <= 0xdf in
  let pool = ref (pool n.h) in
  let allocated v = app v && not (List.mem v !pool) in
  let free v = if not (List.mem v !pool) then pool := v :: !pool in
  List.iter
    (fun (v, _) -> if allocated v then free v)
    dead.Enclave.granted_vectors;
  let grants =
    List.map (fun (e : Enclave.t) -> (e, ref e.Enclave.granted_vectors)) (live n)
  in
  let still_granted v =
    List.exists
      (fun ((e : Enclave.t), g) ->
        e.Enclave.id <> dead.Enclave.id && List.exists (fun (v', _) -> v' = v) !g)
      grants
  in
  List.iter
    (fun ((peer : Enclave.t), g) ->
      if peer.Enclave.id <> dead.Enclave.id then
        List.iter
          (fun (v, d) ->
            if List.mem d dead.Enclave.cores then begin
              if Enclave.is_running peer then
                g := List.filter (fun (v', d') -> v' <> v || d' <> d) !g;
              if allocated v && not (still_granted v) then free v
            end)
          !g)
    grants;
  let whitelists =
    List.filter_map
      (fun (i : Covirt.Controller.instance) ->
        if i.enclave.Enclave.id = dead.Enclave.id then None
        else
          Some
            ( i.enclave.Enclave.id,
              List.filter
                (fun (_, d) -> not (List.mem d dead.Enclave.cores))
                (Covirt.Whitelist.grants i.whitelist) ))
      (Covirt.Controller.instances n.ctl)
  in
  let segments =
    List.filter_map
      (fun (s : Name_service.segment) ->
        if s.exporter = Name_service.Enclave_export dead.Enclave.id then None
        else
          Some (s.segid, List.filter (( <> ) dead.Enclave.id) s.attachers))
      (Name_service.segments (Xemem.registry (Hobbes.xemem n.h)))
  in
  ( !pool,
    List.filter_map
      (fun ((e : Enclave.t), g) ->
        if e.Enclave.id = dead.Enclave.id then None else Some (e.Enclave.id, !g))
      grants,
    whitelists,
    segments )

let observed_teardown n =
  ( pool n.h,
    List.map (fun (e : Enclave.t) -> (e.Enclave.id, e.Enclave.granted_vectors)) (live n),
    List.map
      (fun (i : Covirt.Controller.instance) ->
        (i.enclave.Enclave.id, Covirt.Whitelist.grants i.whitelist))
      (Covirt.Controller.instances n.ctl),
    List.map
      (fun (s : Name_service.segment) -> (s.segid, s.attachers))
      (Name_service.segments (Xemem.registry (Hobbes.xemem n.h))) )

type hop =
  | Launch of int
  | Pair of int * int
  | Grant_raw of int * int * int  (* holder, vector, destination core *)
  | Revoke of int * int * bool  (* holder, grant, narrowed to its core *)
  | Wl_grant of int * int * int  (* instance, vector, destination core *)
  | Export of int
  | Attach of int * int
  | Detach of int * int
  | Destroy of int
  | Reclaim of int

let pp_hop ppf = function
  | Launch c -> Format.fprintf ppf "launch core %d" c
  | Pair (a, b) -> Format.fprintf ppf "pair %d %d" a b
  | Grant_raw (a, v, c) -> Format.fprintf ppf "grant %d v%d -> %d" a v c
  | Revoke (a, g, nr) -> Format.fprintf ppf "revoke %d g%d narrowed=%b" a g nr
  | Wl_grant (a, v, c) -> Format.fprintf ppf "whitelist %d v%d -> %d" a v c
  | Export a -> Format.fprintf ppf "export %d" a
  | Attach (a, s) -> Format.fprintf ppf "attach %d s%d" a s
  | Detach (a, s) -> Format.fprintf ppf "detach %d s%d" a s
  | Destroy a -> Format.fprintf ppf "destroy %d" a
  | Reclaim a -> Format.fprintf ppf "reclaim %d" a

let apply n op =
  let ps = Hobbes.pisces n.h in
  let xem = Hobbes.xemem n.h in
  let segment i =
    pick (Name_service.segments (Xemem.registry xem)) i
  in
  let teardown a f =
    match pick (live n) a with
    | None -> true
    | Some e ->
        let predicted = predict_scrub n e in
        f e;
        predicted = observed_teardown n
  in
  match op with
  | Launch core ->
      n.launched <- n.launched + 1;
      let zone = if core < 4 then 0 else 1 in
      ignore
        (Hobbes.launch_enclave n.h
           ~name:(Printf.sprintf "e%d" n.launched)
           ~cores:[ core ] ~mem:[ (zone, 24 * mib) ] ());
      true
  | Pair (a, b) ->
      (match (pick (live n) a, pick (live n) b) with
      | Some x, Some y -> ignore (Hobbes.grant_vector_pair n.h x y)
      | _ -> ());
      true
  | Grant_raw (a, v, core) ->
      (match pick (live n) a with
      | Some e -> ignore (Pisces.grant_ipi_vector ps e ~vector:(0x40 + v) ~peer_core:core)
      | None -> ());
      true
  | Revoke (a, g, narrowed) ->
      (match pick (live n) a with
      | Some e -> (
          match pick e.Enclave.granted_vectors g with
          | Some (vector, d) ->
              let peer_core = if narrowed then Some d else None in
              ignore (Pisces.revoke_ipi_vector ?peer_core ps e ~vector)
          | None -> ())
      | None -> ());
      true
  | Wl_grant (a, v, core) ->
      (match pick (Covirt.Controller.instances n.ctl) a with
      | Some i -> Covirt.Whitelist.grant i.Covirt.Controller.whitelist ~vector:(0x40 + v) ~dest:core
      | None -> ());
      true
  | Export a ->
      (match pick (live n) a with
      | Some e ->
          n.exports <- n.exports + 1;
          ignore
            (Hobbes.export_window n.h e
               ~name:(Printf.sprintf "w%d" n.exports)
               ~offset:0 ~len:(16 * 4096))
      | None -> ());
      true
  | Attach (a, s) ->
      (match (pick (live n) a, segment s) with
      | Some e, Some seg -> ignore (Xemem.attach xem e ~name:seg.Name_service.name)
      | _ -> ());
      true
  | Detach (a, s) ->
      (match (pick (live n) a, segment s) with
      | Some e, Some seg -> ignore (Xemem.detach xem e ~name:seg.Name_service.name)
      | _ -> ());
      true
  | Destroy a -> teardown a (Pisces.destroy ps)
  | Reclaim a -> teardown a (fun e -> Pisces.reclaim_crashed ps e ~reason:"test")

let prop_teardown_indexes =
  let gen =
    QCheck2.Gen.(
      let i = int_range 0 15 in
      let op =
        frequency
          [
            (6, map (fun c -> Launch c) (int_range 1 (ncores - 1)));
            (2, map2 (fun a b -> Pair (a, b)) i i);
            (2, map3 (fun a v c -> Grant_raw (a, v, c)) i (int_range 0 5) (int_range 0 (ncores - 1)));
            (2, map3 (fun a g nr -> Revoke (a, g, nr)) i i bool);
            (1, map3 (fun a v c -> Wl_grant (a, v, c)) i (int_range 0 5) (int_range 0 (ncores - 1)));
            (2, map (fun a -> Export a) i);
            (2, map2 (fun a s -> Attach (a, s)) i i);
            (1, map2 (fun a s -> Detach (a, s)) i i);
            (1, map (fun a -> Destroy a) i);
            (1, map (fun a -> Reclaim a) i);
          ]
      in
      list_size (int_range 1 60) op)
  in
  Helpers.qtest ~count:100
    ~print:(QCheck2.Print.list (Format.asprintf "%a" pp_hop))
    "reverse indexes = brute force; teardown = full scan" gen (fun ops ->
      let n = small_node () in
      List.for_all (fun op -> apply n op && indexes_agree n) ops)

(* Population independence: one destroy+launch cycle allocates (in
   minor words, which are deterministic) about the same at 256 live
   tenants as at 16, so teardown bookkeeping touches only the dying
   enclave's own state.  Every tenant exports a window and holds a
   doorbell pair with its neighbour, so segment and grant registries
   are populated too. *)
let cycle_words tenants =
  let cores_per_zone = (tenants + 2) / 2 in
  let h =
    Hobbes.create_node ~cores_per_zone
      ~mem_mib_per_zone:(128 + (cores_per_zone * 26) + 64)
      ()
  in
  ignore (Covirt.enable (Hobbes.pisces h) ~config:Covirt.Config.full);
  let zone core = if core < cores_per_zone then 0 else 1 in
  let launch core =
    match
      Hobbes.launch_enclave h ~name:(Printf.sprintf "t%d" core) ~cores:[ core ]
        ~mem:[ (zone core, 24 * mib) ] ()
    with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "launch core %d: %s" core e
  in
  let tenants = Array.init tenants (fun i -> launch (i + 1)) in
  Array.iteri
    (fun i e ->
      ignore
        (Hobbes.export_window h e ~name:(Printf.sprintf "w%d" i) ~offset:0
           ~len:(16 * 4096));
      ignore
        (Hobbes.grant_vector_pair h e tenants.((i + 1) mod Array.length tenants)))
    tenants;
  let cycle i =
    let i = i mod Array.length tenants in
    let e = tenants.(i) in
    Pisces.destroy (Hobbes.pisces h) e;
    tenants.(i) <- launch (List.hd e.Enclave.cores)
  in
  for i = 0 to 7 do cycle i done;
  let reps = 32 in
  let before = Gc.minor_words () in
  for i = 8 to 8 + reps - 1 do cycle i done;
  (Gc.minor_words () -. before) /. float_of_int reps

let test_destroy_population_independent () =
  if Sys.backend_type = Sys.Native then begin
    let small = cycle_words 16 and dense = cycle_words 256 in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words/cycle at 256 tenants <= 1.25 x %.0f at 16"
         dense small)
      true
      (dense <= 1.25 *. small)
  end

let () =
  Alcotest.run "hobbes"
    [
      ( "runtime",
        [
          Alcotest.test_case "launch wiring" `Quick test_launch_wires_everything;
          Alcotest.test_case "vector allocation" `Quick test_vector_allocation;
          Alcotest.test_case "grant pair" `Quick test_grant_pair;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "channel" `Quick test_ipc_channel;
          Alcotest.test_case "under covirt" `Quick test_ipc_under_covirt_whitelist;
        ] );
      ( "apps",
        [
          Alcotest.test_case "composition" `Quick test_app_composition;
          Alcotest.test_case "unknown component" `Quick test_app_unknown_component;
        ] );
      ( "registries",
        [
          prop_teardown_indexes;
          Alcotest.test_case "destroy cost independent of population" `Quick
            test_destroy_population_independent;
        ] );
    ]
