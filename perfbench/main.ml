(* The benchmark command:

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 runs W untraced at one domain and prints every end-to-end
   metric.  --trace 1 runs W three times in one process — untraced,
   counted at two domains, traced at one domain — checks that every
   simulated result and obs count is identical across the three (so
   tracing charges no simulated cycles and placement changes nothing),
   and prints every per-layer metric.  Human-readable lines come first;
   the last line of stdout is the JSON result.  Exit 0 only when every
   output check passed. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let w =
    match List.find_opt (fun w -> w.Suite.wname = !workload) Suite.workloads with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (one of %s)" !workload
             (String.concat ", " (List.map (fun w -> w.Suite.wname) Suite.workloads)))
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let opts =
    { Outcome.seed = !seed; seconds = float_of_int !seconds; domains = 1; counts = false; tiny = false }
  in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let show_checks (r : Outcome.t) =
    say "inputs %s" r.inputs;
    List.iter (fun l -> say "%s" l) r.report;
    List.iter (fun (c, ok) -> say "check %-4s %s" (if ok then "ok" else "FAIL") c) r.checks
  in
  let checks_ok (r : Outcome.t) = List.for_all snd r.checks && r.failed = 0 in
  let correct, attempted, failed, metrics, values =
    if !trace = 0 then begin
      say "fingerprint %s" (Stats.fingerprint ~seed:!seed ~domains:1);
      let r = w.run opts in
      show_checks r;
      (* A host figure on which the first and second halves of the run
         disagree by more than a tenth is not repeatable at this sample
         count. *)
      say "host figures: %s" r.host_how;
      let a, b = r.halves in
      List.iter
        (fun (what, x, y) ->
          let spread = Float.abs (x -. y) /. Float.min x y in
          say "host %s: %d samples, first/second halves differ by %.1f%%%s" what r.host.samples
            (100. *. spread)
            (if spread > 0.1 then " -- not repeatable within a tenth: do not claim on it" else ""))
        [ ("ops/s", a.ops_per_s, b.ops_per_s); ("p50", a.p50_us, b.p50_us); ("p99", a.p99_us, b.p99_us) ];
      List.iter (fun (k, v) -> say "sim %s = %.17g" k v) r.sim;
      say "fail_ratio = %.6f (%d of %d ops)" (float_of_int r.failed /. float_of_int (max 1 r.attempted))
        r.failed r.attempted;
      say "host_op_p50_us     %.6g us (%d samples)" r.host.p50_us r.host.samples;
      say "host_op_p99_us     %.6g us (%d samples)" r.host.p99_us r.host.samples;
      (match List.assoc_opt "sim_overhead_pct" r.sim with
      | Some v -> say "sim_overhead_pct   %.6g %%" v
      | None -> ());
      List.iter
        (fun k -> match List.assoc_opt k r.sim with Some v -> say "%-18s %.6g ns" k v | None -> ())
        [ "sim_op_p50_ns"; "sim_op_p99_ns" ];
      let values = Suite.end_to_end_values r in
      List.iter
        (fun m -> say "%-18s %.6g %s" m.Suite.name (List.assoc m.Suite.name values) m.Suite.unit)
        Suite.end_to_end;
      (checks_ok r, r.attempted, r.failed, Suite.end_to_end, values)
    end
    else begin
      let third = { opts with seconds = opts.seconds /. 3. } in
      say "fingerprint %s" (Stats.fingerprint ~seed:!seed ~domains:1);
      let untraced = w.run third in
      Covirt_obs.Metrics.enable ();
      let counted = w.run { third with domains = 2; counts = true } in
      let g0 = Gc.quick_stat () and c0 = Calib.minor_words () in
      Span.start ();
      let traced = w.run { third with counts = true } in
      Span.stop ();
      Covirt_obs.Metrics.disable ();
      let g1 = Gc.quick_stat () and c1 = Calib.minor_words () in
      show_checks traced;
      let same what a b =
        let ok = a = b in
        if not ok then
          List.iter2
            (fun (k, x) (_, y) -> if x <> y then say "mismatch %s %s: %.17g vs %.17g" what k x y)
            a b;
        say "check %-4s %s identical" (if ok then "ok" else "FAIL") what;
        ok
      in
      let obs_free = same "sim results, untraced d1 vs traced d1" untraced.sim traced.sim in
      let placement_free = same "sim results, traced d1 vs counted d2" traced.sim counted.sim in
      let counts_equal =
        same "obs counts, traced d1 vs counted d2" (Suite.count_values traced)
          (Suite.count_values counted)
      in
      let det = obs_free && placement_free && counts_equal in
      let gc =
        ( g1.Gc.minor_words -. g0.Gc.minor_words -. (c1 -. c0),
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )
      in
      let values = Suite.per_layer_values ~traced ~untraced ~gc in
      List.iter
        (fun m -> say "%-40s %.6g %s" m.Suite.name (List.assoc m.Suite.name values) m.Suite.unit)
        Suite.per_layer;
      let dir = Filename.concat ".bench_build" "perfbench-spans" in
      (try
         if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" w.wname !seed) in
         let n = Span.write_jsonl ~path in
         say "spans: %d recorded, %d written to %s" (Span.recorded ()) n path
       with Sys_error e -> say "spans: not written (%s)" e);
      let all = [ untraced; counted; traced ] in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 all in
      ( det && List.for_all checks_ok all,
        sum (fun r -> r.Outcome.attempted),
        sum (fun r -> r.Outcome.failed),
        Suite.per_layer,
        values )
    end
  in
  print_endline (Suite.result_json ~correct ~attempted ~failed metrics values);
  exit (if correct then 0 else 1)
