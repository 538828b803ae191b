(* Benchmark self-tests: the metric vocabulary is valid and matches
   BENCHMARK.json, a different seed changes every workload's inputs
   but not which checks pass, the churn driver's audit holds at a
   tiny size, and the reference kernel never collects while it is
   timed. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let names () =
  let all = Suite.end_to_end @ Suite.per_layer in
  let ns = List.map (fun m -> m.Suite.name) all in
  check "metric names are valid" (List.for_all Suite.valid_name ns);
  check "metric names are unique" (List.length (List.sort_uniq compare ns) = List.length ns);
  check "units are valid" (List.for_all (fun m -> Suite.valid_unit m.Suite.unit) all);
  check "1..16 end-to-end metrics, each with a bound in (0, 0.25]"
    (List.length Suite.end_to_end <= 16
    && List.for_all
         (fun m -> match m.Suite.bound with Some b -> b > 0. && b <= 0.25 | None -> false)
         Suite.end_to_end);
  check "setup_s is an end-to-end metric in s, lower is better, with the largest bound"
    (match List.find_opt (fun m -> m.Suite.name = "setup_s") Suite.end_to_end with
    | Some { Suite.unit = "s"; better = Suite.Lower; bound = Some b; _ } ->
        List.for_all (fun m -> Option.value m.Suite.bound ~default:0. <= b) Suite.end_to_end
    | _ -> false);
  check "1..128 per-layer metrics, none with a bound"
    (List.length Suite.per_layer <= 128
    && List.for_all (fun m -> m.Suite.bound = None) Suite.per_layer);
  check "2..8 valid, unique workload names"
    (let ws = List.map (fun w -> w.Suite.wname) Suite.workloads in
     List.length ws >= 2 && List.length ws <= 8
     && List.for_all Suite.valid_name ws
     && List.length (List.sort_uniq compare ws) = List.length ws);
  let expected = Suite.benchmark_json () in
  let actual = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  if actual <> expected then print_string expected;
  check "BENCHMARK.json is exactly Suite.benchmark_json ()" (actual = expected)

let opts seed = { Outcome.seed; seconds = 1.; domains = 1; counts = false; tiny = true }

let seeds () =
  List.iter
    (fun w ->
      let a = w.Suite.run (opts 1) and b = w.Suite.run (opts 2) in
      check (w.Suite.wname ^ ": another seed changes the inputs") (a.Outcome.inputs <> b.Outcome.inputs);
      check
        (w.Suite.wname ^ ": ... but not which checks pass")
        (List.map fst a.checks = List.map fst b.checks
        && List.for_all snd a.checks && List.for_all snd b.checks);
      check (w.Suite.wname ^ ": no op failed") (a.failed = 0 && b.failed = 0 && a.attempted > 0))
    Suite.workloads

let churn_audit () =
  let r = Churn.run { (opts 3) with counts = true } in
  check "tiny churn: leak equalities, Verifier.clean and the in-flight bound hold"
    (r.Outcome.checks <> [] && List.for_all snd r.checks);
  check "tiny churn: audits ran"
    (Option.value (List.assoc_opt "analysis.verifier.audits" r.layer) ~default:0. > 0.)

let calib () =
  let w0 = Calib.minor_words () in
  let s = Calib.sample () in
  let per_run = (Calib.minor_words () -. w0) /. 5. in
  check "reference kernel: a positive time" (s > 0.);
  check "reference kernel: one run fits in the minor heap, so it never collects while timed"
    (per_run > 0. && per_run < float_of_int (Gc.get ()).Gc.minor_heap_size)

let () =
  names ();
  seeds ();
  churn_audit ();
  calib ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
