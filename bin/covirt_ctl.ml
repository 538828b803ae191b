(* covirt-ctl: command-line driver for the Covirt simulation stack.

   Subcommands:
     experiment  regenerate a table/figure from the paper
     faults      run the fault-injection tour
     demo        boot a protected enclave, run a workload, show status
     inspect     dump the machine/protection state of a demo run *)

open Cmdliner

(* --- shared arguments --- *)

let quick =
  let doc = "Use reduced problem sizes (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let domains =
  let doc =
    "Domains for the fleet-sharded harnesses (campaign, soak, sweeps). \
     Defaults to Domain.recommended_domain_count.  Placement only: any \
     value produces byte-identical results, only wall-clock changes."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let config_conv =
  let parse s =
    match List.assoc_opt s Covirt.Config.presets with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown config %S (expected: %s)" s
                (String.concat ", " (List.map fst Covirt.Config.presets))))
  in
  let print ppf c = Format.pp_print_string ppf (Covirt.Config.name c) in
  Arg.conv (parse, print)

let config =
  let doc =
    "Protection configuration: native, none, mem, ipi or mem+ipi."
  in
  Arg.(value & opt config_conv Covirt.Config.mem_ipi & info [ "config"; "c" ] ~doc)

(* --- experiment --- *)

let experiment_cmd =
  let open Covirt_harness in
  let name_arg =
    let rows = List.map (fun r -> (r.Registry.name, r)) Registry.all in
    let doc =
      Printf.sprintf "Experiment to run: %s." (Arg.doc_alts_enum rows)
    in
    Arg.(required & pos 0 (some (enum rows)) None
         & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run row quick domains =
    Registry.print (row.Registry.run ~quick ~domains)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(const run $ name_arg $ quick $ domains)

(* --- demo --- *)

let gib = Covirt_sim.Units.gib

let run_demo config cores verbose =
  let machine =
    Covirt_hw.Machine.create ~zones:2 ~cores_per_zone:5 ~mem_per_zone:(32 * gib)
      ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let covirt = Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config in
  let core_ids = List.init cores (fun i -> i + 1) in
  match
    Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"demo" ~cores:core_ids
      ~mem:[ (0, 7 * gib); (1, 7 * gib) ]
      ()
  with
  | Error e -> `Error (false, e)
  | Ok (enclave, kitten) ->
      Format.printf "booted %a under config %s@." Covirt_pisces.Enclave.pp
        enclave (Covirt.Config.name config);
      let ctxs =
        List.map
          (fun core -> Covirt_kitten.Kitten.context kitten ~core)
          (Covirt_kitten.Kitten.cores kitten)
      in
      (match Covirt_workloads.Stream.run ctxs ~elems:2_000_000 ~iters:3 () with
      | Ok r ->
          Format.printf "STREAM triad %.0f MB/s, copy %.0f MB/s@."
            r.Covirt_workloads.Stream.triad_mb_s
            r.Covirt_workloads.Stream.copy_mb_s
      | Error e -> Format.printf "stream failed: %s@." e);
      (match
         Covirt_workloads.Hpcg.run ctxs ~nominal_dim:64 ~real_dim:14
           ~iterations:20 ()
       with
      | Ok r ->
          Format.printf "HPCG %.3f GF/s, residual %.2e@."
            r.Covirt_workloads.Hpcg.gflops
            r.Covirt_workloads.Hpcg.final_residual
      | Error e -> Format.printf "hpcg failed: %s@." e);
      Format.printf "@.%s@." (Covirt.protection_summary covirt);
      if verbose then
        Format.printf "--- trace tail ---@.%a" Covirt_sim.Trace.pp
          machine.Covirt_hw.Machine.trace;
      `Ok ()

let demo_cmd =
  let cores =
    let doc = "Number of enclave cores (1-8)." in
    Arg.(value & opt int 4 & info [ "cores"; "n" ] ~doc)
  in
  let verbose =
    let doc = "Dump the machine trace at the end." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Boot a protected enclave, run workloads, print protection status")
    Term.(ret (const run_demo $ config $ cores $ verbose))

(* --- faults --- *)

let fault_names =
  [ "wild-host"; "wild-sibling"; "phantom"; "errant-ipi"; "msr"; "reset-port";
    "double-fault" ]

let run_fault name config =
  let open Covirt_kitten in
  let machine =
    Covirt_hw.Machine.create ~zones:2 ~cores_per_zone:3 ~mem_per_zone:(8 * gib)
      ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let covirt = Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config in
  let launch nm cs zone =
    match
      Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:nm ~cores:cs
        ~mem:[ (zone, 1 * gib) ] ()
    with
    | Ok pair -> pair
    | Error e -> failwith e
  in
  let attacker, attacker_kitten = launch "attacker" [ 1 ] 0 in
  let victim, _ = launch "victim" [ 3 ] 1 in
  let ctx = Kitten.context attacker_kitten ~core:1 in
  let mib = Covirt_sim.Units.mib in
  let inject () =
    match name with
    | "wild-host" -> Kitten.store_addr ctx (2 * mib)
    | "wild-sibling" ->
        let target =
          match Covirt_hw.Region.Set.to_list victim.Covirt_pisces.Enclave.memory with
          | r :: _ -> r.Covirt_hw.Region.base + mib
          | [] -> failwith "victim has no memory"
        in
        Kitten.store_addr ctx target
    | "phantom" ->
        let phantom = Covirt_hw.Region.make ~base:(6 * gib) ~len:(4 * mib) in
        Kitten.inject_phantom_region attacker_kitten phantom;
        Kitten.touch_believed_memory ctx phantom.Covirt_hw.Region.base
    | "errant-ipi" ->
        Kitten.send_ipi ctx ~dest:(Covirt_pisces.Enclave.bsp victim) ~vector:8
    | "msr" -> Kitten.wrmsr_sensitive ctx
    | "reset-port" -> Kitten.out_reset_port ctx
    | "double-fault" -> Kitten.trigger_double_fault ctx
    | other ->
        failwith
          (Printf.sprintf "unknown fault %S (expected: %s)" other
             (String.concat ", " fault_names))
  in
  let pisces = Covirt_hobbes.Hobbes.pisces hobbes in
  (match Covirt_pisces.Pisces.run_guarded pisces inject with
  | exception Covirt_hw.Machine.Node_panic why ->
      Format.printf "NODE PANIC: %s@." why
  | exception Failure msg -> Format.printf "error: %s@." msg
  | Error crash ->
      Format.printf "contained: %a@." Covirt_pisces.Pisces.pp_crash crash
  | Ok () ->
      if Covirt.dropped_ipis covirt ~enclave_id:attacker.Covirt_pisces.Enclave.id > 0
      then Format.printf "errant operation dropped by the hypervisor@."
      else Format.printf "fault executed with no immediate effect@.");
  List.iter
    (fun r -> Format.printf "report: %a@." Covirt.Fault_report.pp r)
    (Covirt.reports covirt ~enclave_id:attacker.Covirt_pisces.Enclave.id);
  `Ok ()

let faults_cmd =
  let name_arg =
    let doc =
      "Fault to inject: wild-host, wild-sibling, phantom, errant-ipi, msr, \
       reset-port or double-fault."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAULT" ~doc)
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Inject a fault and report what happened")
    Term.(ret (const run_fault $ name_arg $ config))

(* --- analyze --- *)

let corrupt_names = [ "cross-owner"; "free-map"; "stale-grant"; "freed-access" ]

(* Each corruption class maps to the typed violation the sanitizer must
   produce for it.  The static verifier and the shadow sanitizer overlap
   on EPT corruption (one sees the stale table, the other the write), so
   either typed form counts as detection for those classes. *)
let detects corrupt (v : Covirt_analysis.Violation.t) =
  let open Covirt_analysis.Violation in
  match (corrupt, v.kind) with
  | "cross-owner", (Cross_owner_mapping _ | Shadow_corrupt_mapping _) -> true
  | "free-map", (Unbacked_mapping | Shadow_corrupt_mapping _) -> true
  | "stale-grant", Stale_grant _ -> true
  | "freed-access", Shadow_freed_access -> true
  | _ -> false

(* analyze --campaign: the statistical form of the same question.  The
   randomized fault campaign runs under the shadow sanitizer, sharded
   over the fleet; the flagged column counts trials in which the
   analyzer detected an ownership violation as it happened. *)
let run_analyze_campaign trials seed domains =
  let open Covirt_harness in
  let rows = Campaign.run ~trials ~seed ~sanitize:true ?domains () in
  Covirt_sim.Table.print (Campaign.table rows);
  let flagged =
    List.fold_left (fun acc r -> acc + r.Campaign.sanitizer_flagged) 0 rows
  in
  Format.printf
    "campaign: %d trials x %d configs, sanitizer flagged %d trial-config \
     pairs@."
    trials (List.length rows) flagged;
  `Ok ()

let run_analyze sanitize json_out corrupt =
  let open Covirt_analysis in
  let mib = Covirt_sim.Units.mib in
  match corrupt with
  | Some c when not (List.mem c corrupt_names) ->
      `Error
        ( false,
          Printf.sprintf "unknown corruption %S (expected: %s)" c
            (String.concat ", " corrupt_names) )
  | _ -> (
      (* The freed-access demo needs accesses to reach memory (EPT
         enforcement would suppress the stale store before the shadow
         sees it), so it runs unprotected with the sanitizer armed. *)
      let needs_shadow = sanitize || corrupt = Some "freed-access" in
      let base_config =
        if corrupt = Some "freed-access" then Covirt.Config.none
        else Covirt.Config.full
      in
      let config = { base_config with Covirt.Config.sanitize = needs_shadow } in
      let machine =
        Covirt_hw.Machine.create ~zones:2 ~cores_per_zone:3
          ~mem_per_zone:(8 * gib) ()
      in
      let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
      let ctrl = Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config in
      let run () =
        let launch nm cs zone =
          match
            Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:nm ~cores:cs
              ~mem:[ (zone, 1 * gib) ] ()
          with
          | Ok pair -> pair
          | Error e -> failwith e
        in
        let alpha, alpha_kitten = launch "alpha" [ 1; 2 ] 0 in
        let beta, _ = launch "beta" [ 4 ] 1 in
        let first_region (e : Covirt_pisces.Enclave.t) =
          match Covirt_hw.Region.Set.to_list e.Covirt_pisces.Enclave.memory with
          | r :: _ -> r
          | [] -> failwith "enclave has no memory"
        in
        (* A legitimate cross-enclave share and doorbell pair: the
           verifier must bless these, not flag them. *)
        let xemem = Covirt_hobbes.Hobbes.xemem hobbes in
        let share =
          let r = first_region alpha in
          Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base ~len:(2 * mib)
        in
        (match
           Covirt_xemem.Xemem.export xemem
             ~exporter:
               (Covirt_xemem.Name_service.Enclave_export
                  alpha.Covirt_pisces.Enclave.id)
             ~name:"analyze-share" ~pages:[ share ]
         with
        | Ok _ -> ()
        | Error e -> failwith e);
        (match Covirt_xemem.Xemem.attach xemem beta ~name:"analyze-share" with
        | Ok _ -> ()
        | Error e -> failwith e);
        (match Covirt_hobbes.Hobbes.grant_vector_pair hobbes alpha beta with
        | Ok _ -> ()
        | Error e -> failwith e);
        (* Real traffic so the shadow sanitizer has accesses to check. *)
        let ctxs =
          List.map
            (fun core -> Covirt_kitten.Kitten.context alpha_kitten ~core)
            (Covirt_kitten.Kitten.cores alpha_kitten)
        in
        (match Covirt_workloads.Stream.run ctxs ~elems:200_000 ~iters:2 () with
        | Ok _ -> ()
        | Error e -> failwith e);
        let instance_of (e : Covirt_pisces.Enclave.t) =
          match
            Covirt.Controller.instance_for ctrl
              ~enclave_id:e.Covirt_pisces.Enclave.id
          with
          | Some i -> i
          | None -> failwith "enclave has no controller instance"
        in
        let ept_of inst =
          match inst.Covirt.Controller.ept_mgr with
          | Some mgr -> Covirt.Ept_manager.ept mgr
          | None -> failwith "no EPT under this configuration"
        in
        (match corrupt with
        | None -> ()
        | Some "cross-owner" ->
            (* Alpha's EPT suddenly maps a window of beta's memory. *)
            let r = first_region beta in
            Covirt_hw.Ept.map_region
              (ept_of (instance_of alpha))
              (Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base
                 ~len:(4 * mib))
        | Some "free-map" ->
            (* Map a region that belongs to nobody: carve it from the
               free pool, release it, then wire it into alpha's EPT. *)
            let mem = machine.Covirt_hw.Machine.mem in
            let r =
              match
                Covirt_hw.Phys_mem.alloc mem ~owner:Covirt_hw.Owner.Host
                  ~zone:1 ~len:(4 * mib)
              with
              | Ok r -> r
              | Error e -> failwith e
            in
            Covirt_hw.Phys_mem.release mem r;
            Covirt_hw.Ept.map_region (ept_of (instance_of alpha)) r
        | Some "stale-grant" ->
            (* Grant a doorbell towards a core no live enclave owns. *)
            Covirt.Whitelist.grant (instance_of alpha).Covirt.Controller.whitelist
              ~vector:0xd1 ~dest:5
        | Some "freed-access" ->
            (* Hot-add memory, hot-remove it, then touch the stale
               address: only the shadow sanitizer can see this one. *)
            let pisces = Covirt_hobbes.Hobbes.pisces hobbes in
            let r =
              match
                Covirt_pisces.Pisces.add_memory pisces alpha ~zone:0
                  ~len:(4 * mib)
              with
              | Ok r -> r
              | Error e -> failwith e
            in
            (match Covirt_pisces.Pisces.remove_memory pisces alpha r with
            | Ok () -> ()
            | Error e -> failwith e);
            let ctx = Covirt_kitten.Kitten.context alpha_kitten ~core:1 in
            (match
               Covirt_pisces.Pisces.run_guarded pisces (fun () ->
                   Covirt_kitten.Kitten.store_addr ctx
                     (r.Covirt_hw.Region.base + 64))
             with
            | Ok () | Error _ -> ())
        | Some _ -> assert false);
        let report =
          Verifier.run ~registry:(Covirt_xemem.Xemem.registry xemem) ctrl
        in
        let shadow_vs = if Shadow.active () then Shadow.violations () else [] in
        if report.Verifier.violations <> [] then
          Covirt_sim.Table.print (Verifier.table report);
        Format.printf
          "static verifier: %d enclave(s), %d EPT leaves, %d grant(s) checked, \
           %d violation(s)@."
          report.Verifier.enclaves_checked report.Verifier.leaves_checked
          report.Verifier.grants_checked
          (List.length report.Verifier.violations);
        if needs_shadow then begin
          let s = Shadow.stats () in
          Format.printf
            "shadow sanitizer: %d accesses, %d EPT writes, %d TLB installs \
             checked, %d violation(s)@."
            s.accesses s.ept_writes s.tlb_installs (List.length shadow_vs);
          if shadow_vs <> [] then Covirt_sim.Table.print (Shadow.table ())
        end;
        Option.iter
          (fun path ->
            let oc = open_out path in
            if needs_shadow then
              Printf.fprintf oc {|{"verifier":%s,"shadow":%s}|}
                (Verifier.to_json report) (Shadow.to_json ())
            else output_string oc (Verifier.to_json report);
            close_out oc;
            Format.printf "wrote JSON report to %s@." path)
          json_out;
        let all = report.Verifier.violations @ shadow_vs in
        match corrupt with
        | None ->
            if all = [] then begin
              Format.printf "isolation verified: no violations@.";
              `Ok ()
            end
            else
              `Error
                ( false,
                  Printf.sprintf "%d isolation violation(s) detected"
                    (List.length all) )
        | Some c ->
            if List.exists (detects c) all then begin
              Format.printf "injected corruption %S detected as expected@." c;
              `Ok ()
            end
            else
              `Error
                ( false,
                  Printf.sprintf "injected corruption %S was NOT detected" c )
      in
      let result = try run () with Failure msg -> `Error (false, msg) in
      if needs_shadow then Shadow.release ();
      result)

let analyze_cmd =
  let sanitize =
    let doc =
      "Also arm the shadow sanitizer: mirror every EPT write, TLB install \
       and translated access into a shadow ownership map and report \
       boundary crossings as they happen."
    in
    Arg.(value & flag & info [ "sanitize" ] ~doc)
  in
  let json_out =
    let doc = "Write the full violation report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let corrupt =
    let doc =
      "Inject a known corruption before verifying and require its typed \
       violation to be detected: cross-owner, free-map, stale-grant or \
       freed-access."
    in
    Arg.(value & opt (some string) None & info [ "corrupt" ] ~docv:"CLASS" ~doc)
  in
  let campaign =
    let doc =
      "Instead of a single stack, run the randomized fault-injection \
       campaign under the shadow sanitizer, sharded over the fleet \
       (see --domains)."
    in
    Arg.(value & flag & info [ "campaign" ] ~doc)
  in
  let trials =
    let doc = "Trials per configuration for --campaign." in
    Arg.(value & opt int 60 & info [ "trials"; "t" ] ~doc)
  in
  let seed =
    let doc = "Seed for --campaign." in
    Arg.(value & opt int 2026 & info [ "seed"; "s" ] ~doc)
  in
  let dispatch sanitize json_out corrupt campaign trials seed domains =
    if campaign then run_analyze_campaign trials seed domains
    else run_analyze sanitize json_out corrupt
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Boot a protected two-enclave stack with a XEMEM share, then run \
          the static isolation verifier (EPT leaves vs ownership, whitelist \
          grants vs live cores) and optionally the shadow sanitizer; or, \
          with --campaign, the randomized sanitized fault campaign")
    Term.(
      ret
        (const dispatch $ sanitize $ json_out $ corrupt $ campaign $ trials
       $ seed $ domains))

(* --- stats --- *)

let run_stats quick seed trace_out jsonl_out =
  let open Covirt_obs in
  (* Metrics + profiler always; span collection only when an export
     path was requested (spans are the bulkier stream). *)
  enable ();
  if trace_out <> None || jsonl_out <> None then Exporter.enable ();
  reset ();
  Profiler.set_phase "boot";
  let rows = Covirt_harness.Fig3.run ~quick ~seed () in
  Format.printf "figure-3 run (Selfish-Detour noise per configuration):@.";
  Covirt_sim.Table.print (Covirt_harness.Fig3.table rows);
  let snap = Metrics.snapshot () in
  (* Per-exit-reason counts and latency quantiles, merged across
     enclaves and CPUs.  Cycles are simulated TSC cycles; the µs column
     uses the stock 1.7 GHz model clock. *)
  let reasons = Metrics.dims snap "vmexit.cycles" in
  if reasons = [] then
    Format.printf "@.no VM exits recorded (native-only run?)@."
  else begin
    Format.printf "@.VM exits by reason (latency in simulated cycles):@.";
    let t =
      Covirt_sim.Table.create
        ~columns:
          [ "exit reason"; "exits"; "p50"; "p95"; "p99"; "max"; "p50 (us)" ]
    in
    List.iter
      (fun reason ->
        match Metrics.merged_hist snap "vmexit.cycles" ~dim:reason with
        | None -> ()
        | Some h ->
            let q p = Metrics.Hist.quantile h ~p in
            Covirt_sim.Table.add_row t
              [
                reason;
                string_of_int h.Metrics.Hist.n;
                Covirt_sim.Table.cell_f (q 50.);
                Covirt_sim.Table.cell_f (q 95.);
                Covirt_sim.Table.cell_f (q 99.);
                Covirt_sim.Table.cell_f h.Metrics.Hist.max_v;
                Covirt_sim.Table.cell_f (q 50. /. 1700.);
              ])
      reasons;
    Covirt_sim.Table.print t
  end;
  Format.printf "@.%s@." (Profiler.attribution_table ());
  Format.printf "@.%s@." (Profiler.phase_table ());
  Format.printf "@.translation and enforcement counters:@.";
  let t = Covirt_sim.Table.create ~columns:[ "counter"; "value" ] in
  List.iter
    (fun name ->
      Covirt_sim.Table.add_row t
        [ name; string_of_int (Metrics.total_counter snap name) ])
    [
      "tlb.lookup.hit"; "tlb.lookup.miss"; "tlb.flush"; "ept.walk.hit";
      "ept.walk.miss"; "ept.violation"; "ept.entry_writes"; "ipi.filter";
      "fault.report";
    ];
  Covirt_sim.Table.print t;
  Option.iter
    (fun path ->
      Exporter.write_chrome_json ~path;
      Format.printf "@.wrote %d trace events to %s (load in Perfetto or \
                     chrome://tracing)@."
        (Exporter.length ()) path)
    trace_out;
  Option.iter
    (fun path ->
      Exporter.write_jsonl ~path;
      Format.printf "wrote %d trace events to %s (JSONL)@."
        (Exporter.length ()) path)
    jsonl_out;
  `Ok ()

let stats_cmd =
  let seed =
    let doc = "Simulation seed for the figure-3 run." in
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~doc)
  in
  let trace_out =
    let doc = "Write a Chrome trace_event JSON file (Perfetto-loadable)." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let jsonl_out =
    let doc = "Write the trace as one JSON event per line." in
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the figure-3 sweep with observability enabled and print \
          per-exit-reason counts, latency quantiles and cycle attribution")
    Term.(ret (const run_stats $ quick $ seed $ trace_out $ jsonl_out))

(* --- supervise --- *)

(* Quarantine archival for --capture-dir: at the instant a shard's
   circuit breaker trips, drain that shard's recorder ring into a
   soak-shard trace (the trailing exit window leading up to the
   failure) with a JSON ledger sidecar.  The hook runs inside the
   shard's domain; the recorder is armed around each shard body by
   [shard_wrap]. *)
let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quarantine_capture ~dir ~sanitize ~shard_seed ~lo ~hi ~name ~why =
  let open Covirt_replay in
  let events, dropped = Recorder.capture () in
  let trace =
    Trace.make ~dropped
      ~scenario:(Trace.Soak_shard { seed = shard_seed; lo; hi; sanitize })
      events
  in
  let path =
    Filename.concat dir (Printf.sprintf "quarantine-%s-%d.trace" name shard_seed)
  in
  Trace.to_file trace ~path;
  let oc = open_out (path ^ ".json") in
  Printf.fprintf oc
    "{\"enclave\":\"%s\",\"why\":\"%s\",\"shard_seed\":%d,\"trials\":[%d,%d],\n\
    \ \"events\":%d,\"dropped\":%d,\"trace\":\"%s\",\"digest\":\"%s\"}\n"
    (json_escape name) (json_escape why) shard_seed (lo + 1) hi
    (List.length events) dropped (json_escape path) (Trace.digest trace);
  close_out oc;
  Some path

let run_supervise trials seed timeline sanitize shards domains capture_dir =
  let open Covirt_resilience in
  let r =
    match capture_dir with
    | None -> Soak.run ~trials ~seed ~sanitize ~shards ?domains ()
    | Some dir ->
        mkdir_p dir;
        let open Covirt_replay in
        Soak.run ~trials ~seed ~sanitize ~shards ?domains
          ~shard_wrap:(fun body ->
            Recorder.arm ();
            Fun.protect ~finally:(fun () -> Recorder.disarm ()) body)
          ~on_trial:Recorder.set_slot
          ~on_quarantine:(quarantine_capture ~dir ~sanitize)
          ()
  in
  Covirt_sim.Table.print (Soak.table r);
  if r.Soak.quarantined <> [] then begin
    Format.printf "@.quarantine ledger:@.";
    List.iter
      (fun (name, why) -> Format.printf "  %s: %s@." name why)
      r.Soak.quarantined
  end;
  if timeline then begin
    Format.printf "@.recovery timeline:@.";
    List.iter
      (fun e -> Format.printf "  %a@." Supervisor.pp_event e)
      r.Soak.timeline
  end
  else
    Format.printf "@.%d timeline events (rerun with --timeline to list them)@."
      (List.length r.Soak.timeline);
  if r.Soak.budget_respected && r.Soak.sibling_unperturbed then begin
    Format.printf
      "soak passed: every recovery stayed within budget and the sibling's \
       solve was untouched@.";
    `Ok ()
  end
  else `Error (false, "soak failed: see the table above")

let supervise_cmd =
  let trials =
    let doc = "Fault-injection trials to run against the supervised pair." in
    Arg.(value & opt int 200 & info [ "trials"; "t" ] ~doc)
  in
  let seed =
    let doc = "Seed for the fault stream and backoff jitter." in
    Arg.(value & opt int 2026 & info [ "seed"; "s" ] ~doc)
  in
  let timeline =
    let doc = "Print the full recovery timeline." in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let sanitize =
    let doc =
      "Run the whole soak under the shadow sanitizer and report how many \
       trials it flagged."
    in
    Arg.(value & flag & info [ "sanitize" ] ~doc)
  in
  let shards =
    let doc =
      "Cut the trial range into this many shards, each soaked on its own \
       machine stack.  Part of the experiment's identity: a different \
       shard count is a different (equally valid) experiment."
    in
    Arg.(value & opt int 8 & info [ "shards" ] ~doc)
  in
  let capture_dir =
    let doc =
      "Archive each quarantine as it happens: the trailing VM-exit window \
       (a replayable soak-shard trace) plus a JSON ledger sidecar, written \
       into this directory.  The archive paths appear in the result table."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "capture-dir" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run the supervised soak: inject faults and wedges into two worker \
          enclaves, let the supervisor and watchdog recover them, and check \
          an untouched sibling")
    Term.(
      ret
        (const run_supervise $ trials $ seed $ timeline $ sanitize $ shards
       $ domains $ capture_dir))

(* --- record / replay / fuzz --- *)

let print_scenario_report (r : Covirt_replay.Scenario.report) =
  let open Covirt_replay in
  List.iter
    (fun (tr : Scenario.trial_result) ->
      if
        tr.Scenario.crash <> None
        || tr.Scenario.planted <> []
        || tr.Scenario.outcome <> Scenario.Survived
      then begin
        Format.printf "  trial %d: %s" tr.Scenario.slot
          (Scenario.outcome_name tr.Scenario.outcome);
        (match tr.Scenario.crash with
        | Some e -> Format.printf " CRASH %s" e
        | None -> ());
        if tr.Scenario.planted <> [] then
          Format.printf " planted [%s] detected [%s]"
            (String.concat "," (List.map Trace.corruption_name tr.Scenario.planted))
            (String.concat ","
               (List.map Trace.corruption_name tr.Scenario.detected));
        Format.printf "@."
      end)
    r.Scenario.results;
  Format.printf "sanitizer flags: %d, crashes: %d@." r.Scenario.sanitizer_flags
    (List.length r.Scenario.crashes)

let run_record config seed trials out =
  let open Covirt_replay in
  let had_request = Covirt_hw.Sanitize.requested () in
  let report = Scenario.record ~config ~seed ~trials () in
  if not had_request then Covirt_hw.Sanitize.release ();
  Trace.to_file report.Scenario.trace ~path:out;
  Format.printf "%a@.recorded to %s@." Trace.pp_summary report.Scenario.trace
    out;
  print_scenario_report report;
  `Ok ()

let run_replay path minimize out verify preserve_cov =
  let open Covirt_replay in
  match Trace.of_file ~path with
  | Error why -> `Error (false, Printf.sprintf "%s: %s" path why)
  | Ok trace -> (
      Format.printf "%a@." Trace.pp_summary trace;
      let had_request = Covirt_hw.Sanitize.requested () in
      let finish v =
        if not had_request then Covirt_hw.Sanitize.release ();
        v
      in
      if minimize then begin
        (* With --preserve-coverage the edges the full trace covers are
           measured once, then every reduction must keep covering them
           (in addition to whatever the keep predicate demands). *)
        let preserve_edges =
          if not preserve_cov then None
          else begin
            Coverage.arm ();
            ignore (Coverage.capture () : Coverage.t);
            ignore (Replayer.run trace : Scenario.report);
            let c = Coverage.capture () in
            Coverage.disarm ();
            Format.printf "preserving %d covered edges@." (Coverage.count c);
            Some c
          end
        in
        let minimized, stats = Minimizer.minimize ?preserve_edges trace in
        let out = match out with Some o -> o | None -> path ^ ".min" in
        Trace.to_file minimized ~path:out;
        Format.printf
          "minimized %d -> %d events, %d -> %d trials in %d probes -> %s@."
          stats.Minimizer.original_events stats.Minimizer.minimized_events
          stats.Minimizer.original_trials stats.Minimizer.minimized_trials
          stats.Minimizer.probes out;
        finish (`Ok ())
      end
      else if verify then begin
        let v = Replayer.verify trace in
        print_scenario_report v.Replayer.report;
        Format.printf "replay fixed point: %b, matches original: %b@."
          v.Replayer.replay_identical v.Replayer.matches_original;
        if v.Replayer.replay_identical then finish (`Ok ())
        else
          finish
            (`Error
              (false, "replay is not a fixed point: determinism bug"))
      end
      else begin
        let report = Replayer.run trace in
        print_scenario_report report;
        (match out with
        | Some o ->
            Trace.to_file report.Scenario.trace ~path:o;
            Format.printf "re-captured trace written to %s@." o
        | None -> ());
        finish (`Ok ())
      end)

let exec_spread per_shard =
  match per_shard with
  | [] -> (0, 0)
  | (_, e0) :: rest ->
      List.fold_left (fun (lo, hi) (_, e) -> (min lo e, max hi e)) (e0, e0) rest

let run_fuzz trials seed mutations domains seconds corpus known coverage
    coverage_json =
  let open Covirt_replay in
  (* --coverage-json implies guidance: the artifact is meaningless
     without the taps armed. *)
  let coverage = coverage || coverage_json <> None in
  (* A known crash is one whose exception signature a checked-in
     reproducer already replays to — digests won't do, since a
     minimized trace embeds its scenario seed and the same bug found
     under a different fuzz seed digests differently. *)
  let known_signatures =
    match known with
    | None -> []
    | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".trace")
        |> List.concat_map (fun f ->
               match Trace.of_file ~path:(Filename.concat dir f) with
               | Ok t ->
                   List.map snd (Replayer.run t).Scenario.crashes
               | Error _ -> [])
        |> List.sort_uniq compare
    | Some _ -> []
  in
  (* The adaptive corpus: entries loaded here seed the mutation bases
     and the coverage baseline; mutants the guided run promotes are
     persisted back and feed the following batches.  A malformed entry
     fails the load with a typed error rather than being skipped. *)
  match
    match corpus with None -> Ok [] | Some dir -> Corpus.load ~dir
  with
  | Error why -> `Error (false, Printf.sprintf "corpus: %s" why)
  | Ok initial_entries ->
      let entries = ref initial_entries in
      let run_batch ~trials ~seed =
        let r =
          Fuzzer.run ~trials ~seed ~mutations ?domains ~corpus:!entries
            ~coverage ()
        in
        if coverage && r.Fuzzer.promoted <> [] then begin
          (match corpus with
          | Some dir ->
              List.iter
                (fun e -> ignore (Corpus.save ~dir e : string))
                r.Fuzzer.promoted
          | None -> ());
          entries := !entries @ r.Fuzzer.promoted
        end;
        r
      in
      let results =
        match seconds with
        | None -> [ run_batch ~trials ~seed ]
        | Some budget ->
            (* Time-boxed mode for CI: fixed-size batches, each
               internally deterministic (batch seeds derive from the
               base seed), run until the wall-clock budget is spent. *)
            let deadline = Unix.gettimeofday () +. float_of_int budget in
            let batch = max 1 (min trials 24) in
            let rec go i acc =
              if Unix.gettimeofday () >= deadline && acc <> [] then
                List.rev acc
              else
                let r =
                  run_batch ~trials:batch
                    ~seed:(Covirt_sim.Rng.split_seed ~seed ~index:i)
                in
                if Unix.gettimeofday () >= deadline then List.rev (r :: acc)
                else go (i + 1) (r :: acc)
            in
            go 0 []
      in
      List.iter (fun r -> Covirt_sim.Table.print (Fuzzer.table r)) results;
      (* Time-boxed summary: one row per batch with its mutant and
         exec counts (and, guided, its coverage growth), so a CI log
         shows where the budget went shard by shard. *)
      (match seconds with
      | None -> ()
      | Some _ ->
          let t =
            Covirt_sim.Table.create
              ~columns:
                [
                  "batch"; "seed"; "mutants"; "execs"; "execs/shard";
                  "new edges"; "corpus";
                ]
          in
          List.iteri
            (fun i (r : Fuzzer.result) ->
              let lo, hi = exec_spread r.Fuzzer.execs_per_shard in
              Covirt_sim.Table.add_row t
                [
                  string_of_int i;
                  string_of_int r.Fuzzer.seed;
                  string_of_int r.Fuzzer.trials;
                  string_of_int r.Fuzzer.execs;
                  Printf.sprintf "%d..%d" lo hi;
                  string_of_int r.Fuzzer.new_edges;
                  string_of_int r.Fuzzer.corpus_size;
                ])
            results;
          Covirt_sim.Table.print t);
      let crashes =
        List.fold_left
          (fun acc (r : Fuzzer.result) ->
            List.fold_left
              (fun acc (f : Fuzzer.finding) ->
                if
                  List.exists
                    (fun f' -> f'.Fuzzer.digest = f.Fuzzer.digest)
                    acc
                then acc
                else acc @ [ f ])
              acc r.Fuzzer.crashes)
          [] results
      in
      let divergences =
        List.fold_left
          (fun a (r : Fuzzer.result) -> a + r.Fuzzer.divergences)
          0 results
      in
      (match corpus with
      | Some dir ->
          mkdir_p dir;
          List.iter
            (fun (f : Fuzzer.finding) ->
              let path =
                Filename.concat dir
                  ("crash-" ^ String.sub f.Fuzzer.digest 0 16 ^ ".trace")
              in
              Trace.to_file f.Fuzzer.trace ~path;
              Format.printf "corpus: %s (%s)@." path f.Fuzzer.exn)
            crashes
      | None -> ());
      (* The coverage-summary artifact CI uploads next to the corpus. *)
      (match coverage_json with
      | None -> ()
      | Some path ->
          let final_cov =
            List.fold_left
              (fun acc (r : Fuzzer.result) ->
                match r.Fuzzer.coverage with
                | Some c -> Coverage.union acc c
                | None -> acc)
              Coverage.empty results
          in
          let promoted =
            List.fold_left
              (fun a (r : Fuzzer.result) -> a + List.length r.Fuzzer.promoted)
              0 results
          in
          let execs =
            List.fold_left
              (fun a (r : Fuzzer.result) -> a + r.Fuzzer.execs)
              0 results
          in
          let oc = open_out path in
          Printf.fprintf oc
            "{\"edges\":%d,\"edges_total\":%d,\"corpus_size\":%d,\n\
            \ \"promoted\":%d,\"execs\":%d,\"batches\":%d}\n"
            (Coverage.count final_cov) Coverage.total (List.length !entries)
            promoted execs (List.length results);
          close_out oc;
          Format.printf "coverage summary written to %s@." path);
      let fresh =
        List.filter
          (fun (f : Fuzzer.finding) ->
            not (List.mem f.Fuzzer.exn known_signatures))
          crashes
      in
      if divergences > 0 then
        `Error (false, "replay divergence detected: determinism bug")
      else if fresh <> [] && known <> None then
        `Error
          ( false,
            Printf.sprintf
              "%d new crash reproducer(s) not in the known set — minimize \
               and check them in"
              (List.length fresh) )
      else `Ok ()

let record_cmd =
  let config =
    let doc =
      "Protection config for the recorded batch (a preset or \"full\")."
    in
    Arg.(value & opt string "full" & info [ "config"; "c" ] ~doc)
  in
  let seed =
    let doc = "Batch seed; per-trial seeds split off it." in
    Arg.(value & opt int 2026 & info [ "seed"; "s" ] ~doc)
  in
  let trials =
    let doc = "Trials (slots) to record." in
    Arg.(value & opt int 4 & info [ "trials"; "t" ] ~doc)
  in
  let out =
    let doc = "Output trace file." in
    Arg.(value & opt string "covirt.trace" & info [ "out"; "o" ] ~doc)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a fault-injection trial batch into a replayable binary \
          trace (VM exits, injected faults, seeds and schedule)")
    Term.(ret (const run_record $ config $ seed $ trials $ out))

let replay_cmd =
  let trace =
    let doc = "The trace file to replay." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let minimize =
    let doc = "Delta-debug the trace to a minimal crashing reproducer." in
    Arg.(value & flag & info [ "minimize" ] ~doc)
  in
  let out =
    let doc = "Write the re-captured (or minimized) trace here." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc)
  in
  let verify =
    let doc =
      "Replay twice and require the re-captures to be byte-identical (the \
       replay fixed point); nonzero exit on divergence."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let preserve_cov =
    let doc =
      "With --minimize: measure the coverage edges the full trace reaches \
       and reject any reduction that stops covering them."
    in
    Arg.(value & flag & info [ "preserve-coverage" ] ~doc)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded trace bit-identically, with the crash, \
          sanitizer and verifier oracles armed")
    Term.(
      ret (const run_replay $ trace $ minimize $ out $ verify $ preserve_cov))

let fuzz_cmd =
  let trials =
    let doc = "Fuzz trials; one mutated trace replayed per trial." in
    Arg.(value & opt int 100 & info [ "trials"; "t" ] ~doc)
  in
  let seed =
    let doc = "Fuzz seed; every mutation derives from it." in
    Arg.(value & opt int 2026 & info [ "seed"; "s" ] ~doc)
  in
  let mutations =
    let doc = "Maximum mutation operators applied per trace." in
    Arg.(value & opt int 3 & info [ "mutations" ] ~doc)
  in
  let seconds =
    let doc =
      "Time-box: run deterministic batches until this many seconds elapse \
       (the CI fuzz-smoke mode) instead of a single fixed-size run."
    in
    Arg.(value & opt (some int) None & info [ "seconds" ] ~doc)
  in
  let corpus =
    let doc =
      "The adaptive corpus directory: coverage-earning entries are loaded \
       as mutation bases, mutants that reach new coverage are promoted \
       back into it (with --coverage), and minimized crash reproducers \
       are written next to them."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let known =
    let doc =
      "Directory of known (checked-in) reproducers; any crash whose \
       minimized digest is not in it fails the run."
    in
    Arg.(value & opt (some string) None & info [ "known" ] ~docv:"DIR" ~doc)
  in
  let coverage =
    let doc =
      "Coverage-guided mode: arm the coverage taps, promote mutants that \
       reach new edges into the corpus, and report edge totals in the \
       summary table."
    in
    Arg.(value & flag & info [ "coverage" ] ~doc)
  in
  let coverage_json =
    let doc =
      "Write a JSON coverage summary (edges found, corpus size, execs) \
       here — the CI artifact.  Implies --coverage."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage-json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mutate recorded traces (exit dup/reorder/truncation, fault and \
          register-field mutation, corruption planting, XEMEM and spawn \
          interleavings) and replay them under the sanitizer oracles, \
          sharded across domains, optionally coverage-guided")
    Term.(
      ret
        (const run_fuzz $ trials $ seed $ mutations $ domains $ seconds
       $ corpus $ known $ coverage $ coverage_json))

(* --- loadgen --- *)

let run_loadgen enclaves ops zipf seed shards domains max_in_flight bucket
    refill config json_out =
  let module L = Covirt_loadgen.Loadgen in
  match
    L.spec ~tenants:enclaves ~ops ~zipf_s:zipf ~seed ~shards ~config
      ~max_in_flight ~bucket_capacity:bucket ~refill_cycles:refill ()
  with
  | exception Invalid_argument m -> `Error (false, m)
  | spec -> (
      let r = L.run ?domains spec in
      print_string (L.transcript r);
      (match json_out with
      | Some file ->
          let oc = open_out file in
          output_string oc (L.to_json r);
          output_char oc '\n';
          close_out oc;
          (* stderr, so stdout stays byte-comparable across runs whose
             only difference is the output filename *)
          Printf.eprintf "json written to %s\n" file
      | None -> ());
      if L.ok r then `Ok ()
      else
        `Error
          ( false,
            "loadgen audit failed: leaked state, verifier violations or \
             admission bound exceeded" ))

let loadgen_cmd =
  let enclaves =
    let doc = "Tenant enclaves across all shards." in
    Arg.(value & opt int 64 & info [ "enclaves"; "n" ] ~docv:"N" ~doc)
  in
  let ops =
    let doc = "Control-plane operations across all shards." in
    Arg.(value & opt int 512 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let zipf =
    let doc = "Zipf exponent of the tenant traffic skew (0 = uniform)." in
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let seed =
    let doc = "Experiment seed (identity; same seed, same bytes)." in
    Arg.(value & opt int 9 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let shards =
    let doc =
      "Shard count — one independent node per shard; part of the \
       experiment identity (unlike --domains)."
    in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let max_in_flight =
    let doc = "Admission bound on concurrent unsettled boots, per shard." in
    Arg.(value & opt int 8 & info [ "max-in-flight" ] ~docv:"N" ~doc)
  in
  let bucket =
    let doc = "Per-tenant token-bucket capacity." in
    Arg.(value & opt int 8 & info [ "bucket" ] ~docv:"N" ~doc)
  in
  let refill =
    let doc =
      "Cycles per token refill on the tenant's own clock (0 disables \
       rate limiting)."
    in
    Arg.(value & opt int 0 & info [ "refill" ] ~docv:"CYCLES" ~doc)
  in
  let json_out =
    let doc =
      "Write the machine-readable report (per-tenant p50/p95/p99 ns, \
       admission and leak audit) here — the CI artifact."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive Zipf-distributed create/boot/export/attach/grant/destroy \
          churn against a dense multi-tenant node under admission control, \
          then audit it: no leaks, verifier clean, in-flight bound held. \
          Nonzero exit when the audit fails.")
    Term.(
      ret
        (const run_loadgen $ enclaves $ ops $ zipf $ seed $ shards $ domains
       $ max_in_flight $ bucket $ refill $ config $ json_out))

(* --- top level --- *)

let () =
  let doc = "Covirt co-kernel fault-isolation simulator" in
  let info = Cmd.info "covirt-ctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; demo_cmd; faults_cmd; analyze_cmd; supervise_cmd;
            stats_cmd; record_cmd; replay_cmd; fuzz_cmd; loadgen_cmd;
          ]))
