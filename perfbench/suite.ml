type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float option }

type workload = { wname : string; why : string; run : Outcome.opts -> Outcome.t }

let workloads =
  [
    {
      wname = "hpc-protected";
      why =
        "the paper's data plane: HPC kernels under every protection preset; host time is kernel \
         arithmetic plus hw charge models, almost no VM exits";
      run = Hpc.run;
    };
    {
      wname = "enclave-churn";
      why =
        "Zipf control-plane churn over 1024 booted tenants: EPT is written, not read; registry \
         and audit costs grow with the population";
      run = Churn.run;
    };
    {
      wname = "fault-storm";
      why =
        "record/replay fault trials and a sanitized soak: the same hw/core paths with the \
         sanitizer and recorder taps armed";
      run = Storm.run;
    };
  ]

let run_seconds = 20

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let pl name unit better = { name; unit; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "contained_ratio" "ratio" Higher 0.05;
    e2e "peak_rss_mib" "MiB" Lower 0.25;
  ]

let hpc_kernels = Hpc.kernels

let counts =
  [
    ("core.vmexit.count", "vmexit.count");
    ("hw.tlb.miss", "tlb.lookup.miss");
    ("hw.ept.walk_miss", "ept.walk.miss");
    ("hw.ept.violation", "ept.violation");
    ("hw.ept.entry_writes", "ept.entry_writes");
    ("core.hv.tlb_shootdown", "hv.tlb_shootdown");
    ("core.hv.emulation", "hv.emulation");
    ("core.ipi.filter", "ipi.filter");
    ("core.fault.report", "fault.report");
  ]

let per_layer =
  List.map (fun k -> pl ("workloads." ^ k ^ ".host_ms") "ms" Lower) hpc_kernels
  @ List.map (fun k -> pl ("workloads." ^ k ^ ".sim_overhead_pct") "%" Lower) hpc_kernels
  @ [ pl "hw.machine_create.host_ms" "ms" Lower; pl "core.enable.host_ms" "ms" Lower ]
  @ List.concat_map
      (fun k ->
        [
          pl (k ^ ".calls") "count" Higher;
          pl (k ^ ".host_ms") "ms" Lower;
          pl (k ^ ".host_p50_us") "us" Lower;
          pl (k ^ ".sim_p99_ns") "ns" Lower;
        ])
      Churn.kinds
  @ [
      pl "analysis.verifier.host_ms" "ms" Lower;
      pl "analysis.verifier.ns_per_leaf" "ns" Lower;
      pl "analysis.audit.host_ms" "ms" Lower;
      pl "replay.record.host_ms" "ms" Lower;
      pl "replay.replay.host_ms" "ms" Lower;
      pl "resilience.soak.host_ms" "ms" Lower;
      pl "resilience.supervisor.events" "count" Lower;
      pl "replay.encode.mb_per_s" "MB/s" Higher;
      pl "replay.decode.mb_per_s" "MB/s" Higher;
      pl "replay.trace_kb" "KiB" Lower;
    ]
  @ List.map (fun (n, _) -> pl n "count" Lower) counts
  @ [
      pl "core.vmexit.sim_mcycles" "Mcycles" Lower;
      pl "analysis.sanitizer.flags" "count" Lower;
      pl "runtime.minor_mwords" "Mwords" Lower;
      pl "runtime.major_collections" "count" Lower;
      pl "fleet.shard_skew" "ratio" Lower;
      pl "obs.overhead_ratio" "ratio" Higher;
    ]

let valid_chars extra s =
  String.for_all
    (fun c ->
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || String.contains extra c)
    s

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && valid_chars "_.-" s
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && valid_chars "_/%.-" s

let sim_or r name = Option.value (List.assoc_opt name r.Outcome.sim) ~default:0.


let end_to_end_values (r : Outcome.t) =
  [
    ("setup_s", r.setup_s);
    ("ops_per_s", r.host.ops_per_s);
    ("contained_ratio", sim_or r "contained_ratio");
    ("peak_rss_mib", r.peak_rss_mib);
  ]

let count_values (r : Outcome.t) =
  let module M = Covirt_obs.Metrics in
  let exit_cycles =
    List.fold_left
      (fun acc (_, v) -> match v with M.Histogram h -> acc +. h.M.Hist.sum | _ -> acc)
      0.
      (M.find r.counts "vmexit.cycles")
  in
  List.map (fun (n, fam) -> (n, float_of_int (M.total_counter r.counts fam))) counts
  @ [ ("core.vmexit.sim_mcycles", exit_cycles /. 1e6) ]

let per_layer_values ~traced ~untraced ~gc:(minor_words, majors) =
  let ms name = (Span.total name).Span.self_s *. 1e3 in
  let layer name = Option.value (List.assoc_opt name traced.Outcome.layer) ~default:0. in
  let mb_per_s span =
    let s = (Span.total span).Span.self_s in
    if s > 0. then layer "replay.bytes" /. s /. 1e6 else 0.
  in
  let skew =
    let a = traced.Outcome.shard_s in
    let mean = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
    Array.fold_left Float.max 0. a /. mean
  in
  let leaves = layer "analysis.verifier.leaves" in
  let values =
    List.map (fun k -> ("workloads." ^ k ^ ".host_ms", ms ("workloads." ^ k))) hpc_kernels
    @ List.map
        (fun k ->
          let n = "workloads." ^ k ^ ".sim_overhead_pct" in
          (n, sim_or traced n))
        hpc_kernels
    @ [ ("hw.machine_create.host_ms", ms "hw.machine_create"); ("core.enable.host_ms", ms "core.enable") ]
    @ List.concat_map
        (fun k ->
          let t = Span.total k in
          [
            (k ^ ".calls", float_of_int t.Span.calls);
            (k ^ ".host_ms", t.Span.self_s *. 1e3);
            (k ^ ".host_p50_us", if t.Span.calls = 0 then 0. else Stats.median t.Span.self_samples *. 1e6);
            (k ^ ".sim_p99_ns", sim_or traced (k ^ ".sim_p99_ns"));
          ])
        Churn.kinds
    @ [
        ("analysis.verifier.host_ms", ms "analysis.verifier");
        ( "analysis.verifier.ns_per_leaf",
          if leaves > 0. then (Span.total "analysis.verifier").Span.self_s *. 1e9 /. leaves else 0. );
        ("analysis.audit.host_ms", ms "analysis.audit");
        ("replay.record.host_ms", ms "replay.record");
        ("replay.replay.host_ms", ms "replay.replay");
        ("resilience.soak.host_ms", ms "resilience.soak");
        ("resilience.supervisor.events", sim_or traced "resilience.supervisor.events");
        ("replay.encode.mb_per_s", mb_per_s "replay.encode");
        ("replay.decode.mb_per_s", mb_per_s "replay.decode");
        ("replay.trace_kb", sim_or traced "replay.trace_kb");
      ]
    @ count_values traced
    @ [
        ("analysis.sanitizer.flags", sim_or traced "analysis.sanitizer.flags");
        ("runtime.minor_mwords", minor_words /. 1e6);
        ("runtime.major_collections", majors);
        ("fleet.shard_skew", skew);
        ("obs.overhead_ratio", traced.Outcome.host.ops_per_s /. untraced.Outcome.host.ops_per_s);
      ]
  in
  (* Order as declared; every declared metric present exactly once. *)
  List.map (fun m -> (m.name, List.assoc m.name values)) per_layer

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics values =
  let body =
    List.map
      (fun m ->
        let v = match List.assoc_opt m.name values with Some v -> v | None -> nan in
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float v) m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)

let benchmark_json () =
  let better = function Lower -> "lower" | Higher -> "higher" in
  let metric m =
    match m.bound with
    | Some b ->
        Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %s}" m.name m.unit
          (better m.better) (Printf.sprintf "%g" b)
    | None ->
        Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" m.name m.unit (better m.better)
  in
  let list f xs = String.concat ",\n" (List.map f xs) in
  Printf.sprintf
    "{\n\
    \  \"command\": [\"python3\", \"perfbench/run.py\"],\n\
    \  \"paths\": [\"perfbench\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n\
     %s\n\
    \  ],\n\
    \  \"end_to_end\": [\n\
     %s\n\
    \  ],\n\
    \  \"per_layer\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    run_seconds
    (list (fun w -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" w.wname w.why) workloads)
    (list metric end_to_end) (list metric per_layer)
