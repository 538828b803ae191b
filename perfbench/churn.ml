open Covirt_pisces
module Machine = Covirt_hw.Machine
module Hobbes = Covirt_hobbes.Hobbes
module Kitten = Covirt_kitten.Kitten
module Xemem = Covirt_xemem.Xemem
module Name_service = Covirt_xemem.Name_service
module Verifier = Covirt_analysis.Verifier
module Admission = Covirt.Admission
module Metrics = Covirt_obs.Metrics
module Fleet = Covirt_fleet.Fleet
module Rng = Covirt_sim.Rng

type spec = {
  tenants : int;
  shards : int;
  zipf_s : float;
  prefix_ops : int;
  window_ops : int;
  audit_every : int;
  max_in_flight : int;
  bucket_capacity : int;
  settle_ops : int;
  tenant_mib : int;
}

let full =
  {
    tenants = 1024;
    shards = 4;
    zipf_s = 1.1;
    prefix_ops = 16384;
    window_ops = 1024;
    audit_every = 4096;
    max_in_flight = 8;
    bucket_capacity = 8;
    settle_ops = 4;
    tenant_mib = 24;
  }

let tiny =
  { full with tenants = 16; shards = 2; prefix_ops = 64; window_ops = 32; audit_every = 32 }

let kinds =
  [
    "hobbes.launch_enclave";
    "pisces.destroy";
    "hobbes.export_window";
    "xemem.attach";
    "xemem.detach";
    "hobbes.grant_vector_pair";
    "pisces.revoke_ipi_vector";
    "kitten.work";
    "core.admission";
  ]

let mib = Covirt_sim.Units.mib

type tenant = {
  g : int;
  local : int;
  core : int;
  zone : int;
  t_rng : Rng.t;
  mutable enclave : Enclave.t option;
  mutable kitten : Kitten.t option;
  mutable heap : int option;
  mutable export_name : string option;
  mutable export_gen : int;
  mutable attached : string option;
  mutable grant : (int * int * int) option;  (* va, vb, peer enclave id *)
}

type shard = {
  index : int;
  h : Hobbes.t;
  ps : Pisces.t;
  xem : Xemem.t;
  ctl : Covirt.Controller.t;
  adm : Admission.t;
  vector_space : int;
  tenants : tenant array;
  cdf : float array;  (* Zipf CDF over local ranks *)
  pick : Rng.t;
  pending : (Admission.token * int) Queue.t;
}

(* Zipf(s) over ranks 0..n-1: normalised CDF, one uniform draw and a
   binary search per sample. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_sample cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let tenant_name g = Printf.sprintf "t%d" g

let launch (spec : spec) s tn () =
  Hobbes.launch_enclave s.h ~name:(tenant_name tn.g) ~cores:[ tn.core ]
    ~mem:[ (tn.zone, spec.tenant_mib * mib) ]
    ()

let build_shard (spec : spec) ~shard_seed ~index =
  let lo, hi = Fleet.slice ~n:spec.tenants ~shards:spec.shards index in
  let nlocal = hi - lo in
  let zones = 2 in
  let cores_per_zone = (nlocal + 1 + zones - 1) / zones in
  let mem_mib_per_zone = 128 + (cores_per_zone * (spec.tenant_mib + 2)) + 64 in
  let m =
    Span.wrap "hw.machine_create" (fun () ->
        Machine.create ~seed:shard_seed ~zones ~cores_per_zone
          ~mem_per_zone:(mem_mib_per_zone * mib)
          ~host_reserved_per_zone:(128 * mib) ())
  in
  let h = Span.wrap "hobbes.create" (fun () -> Hobbes.create m ~host_core:0) in
  let ps = Hobbes.pisces h in
  let ctl =
    Span.wrap "core.enable" (fun () -> Covirt.enable ps ~config:Covirt.Config.full)
  in
  let s =
    {
      index;
      h;
      ps;
      xem = Hobbes.xemem h;
      ctl;
      adm =
        Admission.create ~bucket_capacity:spec.bucket_capacity ~refill_cycles:0
          ~max_in_flight:spec.max_in_flight ();
      vector_space = Hobbes.free_vector_count h;
      tenants =
        Array.init nlocal (fun i ->
            let core = 1 + i in
            {
              g = lo + i;
              local = i;
              core;
              zone = core / cores_per_zone;
              t_rng = Rng.create ~seed:(Rng.split_seed ~seed:shard_seed ~index:(i + 1));
              enclave = None;
              kitten = None;
              heap = None;
              export_name = None;
              export_gen = 0;
              attached = None;
              grant = None;
            });
      cdf = zipf_cdf ~n:nlocal ~s:spec.zipf_s;
      pick = Rng.create ~seed:(Rng.split_seed ~seed:shard_seed ~index:0);
      pending = Queue.create ();
    }
  in
  (* Boot the whole population, one admitted boot at a time. *)
  Array.iter
    (fun tn ->
      match Admission.admit_boot s.adm ~tenant:tn.g ~now:(Pisces.core_tsc ps tn.core) with
      | Error r -> failwith (Format.asprintf "churn set-up: %a" Admission.pp_reject r)
      | Ok token -> (
          let res = Span.wrap "hobbes.launch_enclave" (launch spec s tn) in
          Admission.settle s.adm token;
          match res with
          | Ok (e, k) ->
              tn.enclave <- Some e;
              tn.kitten <- Some k
          | Error msg -> failwith ("churn set-up: launch: " ^ msg)))
    s.tenants;
  s

(* ------------------------------------------------------------------ *)
(* The timed closed loop of one shard.                                 *)

type leaks = {
  live_tenants : int;
  live_enclaves : int;
  kernel_entries : int;
  controller_instances : int;
  live_exports : int;
  segments : int;
  vectors_outstanding : int;
  vectors_expected : int;
  vectors_lost : int;
  unclaimed_acks : int;
  admission_tenants : int;
  slots : int;
}

let leak_free l =
  l.live_enclaves = l.live_tenants
  && l.kernel_entries = l.live_tenants
  && l.controller_instances = l.live_tenants
  && l.segments = l.live_exports
  && l.vectors_outstanding = l.vectors_expected
  && l.vectors_lost = 0 && l.unclaimed_acks = 0
  && l.admission_tenants <= l.slots

let neighbour s tn = s.tenants.((tn.local + 1) mod Array.length s.tenants)

let leaks s =
  List.iter (fun e -> ignore (Pisces.service_channel s.ps e)) (Pisces.enclaves s.ps);
  let live = List.filter (fun t -> t.enclave <> None) (Array.to_list s.tenants) in
  let live_pairs =
    List.length
      (List.filter
         (fun t ->
           match (t.grant, (neighbour s t).enclave) with
           | Some (_, _, peer), Some ne -> ne.Enclave.id = peer
           | _ -> false)
         live)
  in
  let free_v = Hobbes.free_vector_count s.h and alloc_v = Hobbes.allocated_vector_count s.h in
  {
    live_tenants = List.length live;
    live_enclaves = List.length (Pisces.enclaves s.ps);
    kernel_entries = Hobbes.kernel_count s.h;
    controller_instances = List.length (Covirt.Controller.instances s.ctl);
    live_exports = List.length (List.filter (fun t -> t.export_name <> None) live);
    segments = List.length (Name_service.segments (Xemem.registry s.xem));
    vectors_outstanding = alloc_v;
    vectors_expected = 2 * live_pairs;
    vectors_lost = s.vector_space - free_v - alloc_v;
    unclaimed_acks =
      List.fold_left
        (fun acc (e : Enclave.t) -> acc + Ctrl_channel.pending_acks e.Enclave.channel)
        0 (Pisces.enclaves s.ps);
    admission_tenants = Admission.tracked_tenants s.adm;
    slots = Array.length s.tenants;
  }

(* Per-shard driver state carried from window to window. *)
type driver = {
  s : shard;
  ghz : float;
  per_kind : (string * Stats.buf) list;  (* prefix only *)
  sim_op : Stats.buf;  (* prefix only *)
  mutable opi : int;
  mutable picks : int;  (* hash of the prefix's tenant picks, the generated inputs *)
  mutable errors : int;  (* control calls that returned Error, or rejects *)
  mutable lost : int;  (* ops that raised: node loss or a harness failure *)
  mutable lost_prefix : int;
  mutable audits : int;
  mutable audits_failed : int;
  mutable leaves : int;
  mutable notes : string list;
}

let driver s =
  {
    s;
    ghz = Pisces.tsc_ghz s.ps;
    per_kind = List.map (fun k -> (k, Stats.buf ())) kinds;
    sim_op = Stats.buf ();
    opi = 0;
    picks = 0;
    errors = 0;
    lost = 0;
    lost_prefix = 0;
    audits = 0;
    audits_failed = 0;
    leaves = 0;
    notes = [];
  }

let note d msg = d.notes <- msg :: d.notes

let audit d =
  let s = d.s in
  d.audits <- d.audits + 1;
  let l = Span.wrap "analysis.audit" (fun () -> leaks s) in
  let vr =
    Span.wrap "analysis.verifier" (fun () -> Verifier.run ~registry:(Xemem.registry s.xem) s.ctl)
  in
  d.leaves <- d.leaves + vr.Verifier.leaves_checked;
  if not (leak_free l && Verifier.clean vr) then begin
    d.audits_failed <- d.audits_failed + 1;
    note d
      (Printf.sprintf
         "shard %d audit failed after op %d: live=%d enclaves=%d kernels=%d instances=%d \
          segments=%d/%d vectors=%d/%d lost=%d acks=%d violations=%d"
         s.index d.opi l.live_tenants l.live_enclaves l.kernel_entries l.controller_instances
         l.segments l.live_exports l.vectors_outstanding l.vectors_expected l.vectors_lost
         l.unclaimed_acks (List.length vr.Verifier.violations))
  end

(* Run the next [ops] ops of shard [d] closed-loop; return their host
   latencies.  Simulated latencies are kept while [prefix] holds. *)
let run_ops (spec : spec) d ~ops ~prefix =
  let s = d.s in
  let lat = Array.make ops 0. in
  let op_cycles = ref 0 in
  (* A control call: its span, and in the prefix its simulated latency
     (host control core plus the tenant's core, as loadgen counts it). *)
  let call tn kind f =
    let h0 = Pisces.host_tsc s.ps and c0 = Pisces.core_tsc s.ps tn.core in
    let r = Span.wrap kind f in
    let dt = Pisces.host_tsc s.ps - h0 + (Pisces.core_tsc s.ps tn.core - c0) in
    op_cycles := !op_cycles + dt;
    if prefix then Stats.push (List.assoc kind d.per_kind) (float_of_int dt /. d.ghz);
    r
  in
  let clear tn =
    tn.enclave <- None;
    tn.kitten <- None;
    tn.heap <- None;
    tn.export_name <- None;
    tn.attached <- None;
    tn.grant <- None
  in
  let failed () = d.errors <- d.errors + 1 in
  let do_work tn =
    match tn.kitten with
    | None -> ()
    | Some k ->
        call tn "kitten.work" (fun () ->
            let ctx = Kitten.context k ~core:tn.core in
            Kitten.run_with_ticks ctx (fun () ->
                Kitten.heartbeat ctx;
                let heap =
                  match tn.heap with
                  | Some a -> a
                  | None -> (
                      match Kitten.kalloc k ~bytes:(64 * 1024) with
                      | Ok a ->
                          tn.heap <- Some a;
                          a
                      | Error e -> failwith ("churn: kalloc: " ^ e))
                in
                Kitten.store_addr ctx (heap + 128);
                Kitten.load_addr ctx (heap + 128)))
  in
  let admitted tn f =
    match call tn "core.admission" (fun () -> f ~tenant:tn.g ~now:(Pisces.core_tsc s.ps tn.core)) with
    | Ok v -> Some v
    | Error _ ->
        failed ();
        None
  in
  let do_create tn =
    match admitted tn (Admission.admit_boot s.adm) with
    | None -> ()
    | Some token -> (
        match call tn "hobbes.launch_enclave" (launch spec s tn) with
        | Ok (e, k) ->
            tn.enclave <- Some e;
            tn.kitten <- Some k;
            Queue.push (token, d.opi + spec.settle_ops) s.pending
        | Error msg ->
            Admission.settle s.adm token;
            failed ();
            note d ("launch failed: " ^ msg))
  in
  let do_export tn =
    match (tn.enclave, tn.export_name) with
    | Some e, None -> (
        let name = Printf.sprintf "seg-%d-%d" tn.g tn.export_gen in
        match
          call tn "hobbes.export_window" (fun () ->
              Hobbes.export_window s.h e ~name ~offset:(4 * mib) ~len:(2 * mib))
        with
        | Ok _ ->
            tn.export_name <- Some name;
            tn.export_gen <- tn.export_gen + 1
        | Error _ -> failed ())
    | _ -> do_work tn
  in
  let do_attach tn =
    let nb = neighbour s tn in
    match (tn.enclave, tn.attached, nb.export_name) with
    | Some e, None, Some name when nb.local <> tn.local -> (
        match call tn "xemem.attach" (fun () -> Xemem.attach s.xem e ~name) with
        | Ok _ -> tn.attached <- Some name
        | Error _ -> failed ())
    | _ -> do_work tn
  in
  let do_detach tn =
    match (tn.enclave, tn.attached) with
    | Some e, Some name ->
        (* The segment may be gone already (its exporter died and the
           runtime force-detached us); either way the attachment ends. *)
        ignore (call tn "xemem.detach" (fun () -> Xemem.detach s.xem e ~name));
        tn.attached <- None
    | _ -> do_work tn
  in
  let do_grant tn =
    let nb = neighbour s tn in
    match (tn.enclave, tn.grant, nb.enclave) with
    | Some e, None, Some ne when nb.local <> tn.local -> (
        match call tn "hobbes.grant_vector_pair" (fun () -> Hobbes.grant_vector_pair s.h e ne) with
        | Ok (va, vb) -> tn.grant <- Some (va, vb, ne.Enclave.id)
        | Error _ -> failed ())
    | _ -> do_work tn
  in
  let do_revoke tn =
    match (tn.enclave, tn.grant) with
    | Some e, Some (va, vb, peer) ->
        (match (neighbour s tn).enclave with
        | Some ne when ne.Enclave.id = peer ->
            call tn "pisces.revoke_ipi_vector" (fun () ->
                ignore (Pisces.revoke_ipi_vector s.ps e ~vector:va);
                ignore (Pisces.revoke_ipi_vector s.ps ne ~vector:vb));
            Hobbes.free_ipi_vector s.h va;
            Hobbes.free_ipi_vector s.h vb
        | _ ->
            (* The peer died since the grant; the destroy-time scrub
               already revoked and freed both directions. *)
            ());
        tn.grant <- None
    | _ -> do_work tn
  in
  let do_destroy tn =
    match tn.enclave with
    | Some e ->
        call tn "pisces.destroy" (fun () -> Pisces.destroy s.ps e);
        clear tn
    | None -> do_work tn
  in
  let run_op tn =
    match tn.enclave with
    | None -> do_create tn
    | Some _ -> (
        match admitted tn (Admission.admit_op s.adm) with
        | None -> ()
        | Some () ->
            let p = Rng.int tn.t_rng ~bound:100 in
            if p < 30 then do_work tn
            else if p < 45 then do_export tn
            else if p < 60 then do_attach tn
            else if p < 70 then do_detach tn
            else if p < 80 then do_grant tn
            else if p < 88 then do_revoke tn
            else do_destroy tn)
  in
  for j = 0 to ops - 1 do
    while (not (Queue.is_empty s.pending)) && snd (Queue.peek s.pending) <= d.opi do
      Admission.settle s.adm (fst (Queue.pop s.pending))
    done;
    let tn = s.tenants.(zipf_sample s.cdf s.pick) in
    if prefix then d.picks <- (d.picks * 31) + tn.g;
    Span.set_op ((s.index lsl 40) lor d.opi);
    op_cycles := 0;
    let c0 = Stats.now () in
    (match Span.wrap "churn.op" (fun () -> run_op tn) with
    | () -> ()
    | exception e ->
        d.lost <- d.lost + 1;
        if prefix then d.lost_prefix <- d.lost_prefix + 1;
        note d (Printf.sprintf "op %d raised: %s" d.opi (Printexc.to_string e)));
    lat.(j) <- (Stats.now () -. c0) *. 1e6;
    if prefix then Stats.push d.sim_op (float_of_int !op_cycles /. d.ghz);
    d.opi <- d.opi + 1;
    if d.opi mod spec.audit_every = 0 then audit d
  done;
  lat

(* Quiesce: settle every outstanding boot, then audit once more. *)
let quiesce d =
  Queue.iter (fun (token, _) -> Admission.settle d.s.adm token) d.s.pending;
  Queue.clear d.s.pending;
  audit d

let run (o : Outcome.opts) =
  let spec = if o.tiny then tiny else full in
  let nodes, setup =
    Outcome.setup ~every:16 (fun () ->
        Fleet.map ~domains:o.domains ~seed:o.seed ~shards:spec.shards
          (fun ~shard_seed ~index -> build_shard spec ~shard_seed ~index))
  in
  let drivers = Array.map driver nodes in
  let prefix_windows = spec.prefix_ops / spec.window_ops in
  let windows =
    Outcome.run_windows o ~nominal_s:0.18 ~prefix:prefix_windows ~setup (fun w ->
        let prefix = w < prefix_windows in
        Outcome.timed (fun () ->
            Fleet.map ~domains:o.domains ~seed:o.seed ~shards:spec.shards
              (fun ~shard_seed:_ ~index ->
                let counts = o.counts && prefix in
                let before = if counts then Metrics.snapshot () else Metrics.empty in
                let lat, secs =
                  Outcome.timed (fun () -> run_ops spec drivers.(index) ~ops:spec.window_ops ~prefix)
                in
                let delta = if counts then Metrics.diff ~before ~after:(Metrics.snapshot ()) else Metrics.empty in
                (lat, delta, secs))))
  in
  Array.iter quiesce drivers;
  let ds = Array.to_list drivers in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 ds in
  let cat f = Array.concat (List.map f ds) in
  let sim_op = cat (fun d -> Stats.contents d.sim_op) in
  let kind_ns k = cat (fun d -> Stats.contents (List.assoc k d.per_kind)) in
  let peak = List.fold_left (fun acc d -> max acc (Admission.peak_in_flight d.s.adm)) 0 ds in
  let audits_failed = sum (fun d -> d.audits_failed) in
  let errors = sum (fun d -> d.errors) and lost = sum (fun d -> d.lost) in
  let ops = sum (fun d -> d.opi) in
  let prefix_ops = spec.prefix_ops * spec.shards in
  let prefix = List.filteri (fun i _ -> i < prefix_windows) windows in
  let host, halves, host_how =
    Outcome.of_windows setup
      (List.map
         (fun (outs, secs) ->
           let lat_us = Array.concat (Array.to_list (Array.map (fun (l, _, _) -> l) outs)) in
           { Outcome.ops = Array.length lat_us; secs; lat_us })
         windows)
  in
  let shard_s = Array.make spec.shards 0. in
  List.iter (fun (outs, _) -> Array.iteri (fun i (_, _, s) -> shard_s.(i) <- shard_s.(i) +. s) outs) prefix;
  {
    Outcome.setup_s = Outcome.setup_s setup;
    peak_rss_mib = Outcome.peak_rss_mib setup;
    host;
    halves;
    host_how;
    attempted = ops;
    failed = errors + lost + audits_failed;
    checks =
      [
        ("leak equalities and Verifier.clean at every audit", audits_failed = 0);
        ("peak in-flight boots <= bound", peak <= spec.max_in_flight);
        ("no control call failed or was refused", errors = 0);
        ("no op raised", lost = 0);
      ];
    sim =
      [
        ("sim_op_p50_ns", Stats.quantile sim_op ~p:50.);
        ("sim_op_p99_ns", Stats.quantile sim_op ~p:99.);
        ("sim_op_sum_ns", Array.fold_left ( +. ) 0. sim_op);
        ( "contained_ratio",
          float_of_int (prefix_ops - sum (fun d -> d.lost_prefix)) /. float_of_int prefix_ops );
      ]
      @ List.map (fun k -> (k ^ ".sim_p99_ns", Stats.quantile (kind_ns k) ~p:99.)) kinds;
    counts =
      List.fold_left
        (fun acc (outs, _) -> Array.fold_left (fun acc (_, d, _) -> Metrics.merge acc d) acc outs)
        Metrics.empty prefix;
    layer =
      [
        ("analysis.verifier.leaves", float_of_int (sum (fun d -> d.leaves)));
        ("analysis.verifier.audits", float_of_int (sum (fun d -> d.audits)));
      ];
    shard_s;
    inputs = String.concat "-" (List.map (fun d -> Printf.sprintf "%x" d.picks) ds);
    report =
      Printf.sprintf
        "churn: %d tenants in %d shards, %d ops in %d windows of %d per shard (first %d per shard \
         fixed), %d audits, peak in-flight %d (bound %d)"
        spec.tenants spec.shards ops (List.length windows) spec.window_ops spec.prefix_ops
        (sum (fun d -> d.audits)) peak spec.max_in_flight
      :: List.concat_map (fun d -> List.rev d.notes) ds;
  }
