module Scenario = Covirt_replay.Scenario
module Trace = Covirt_replay.Trace
module Soak = Covirt_resilience.Soak
module Metrics = Covirt_obs.Metrics
module Fleet = Covirt_fleet.Fleet
module Rng = Covirt_sim.Rng

let configs = Array.of_list Scenario.config_names
let shards = 2

type trial = {
  contained : bool;  (** survived: no node loss, no collateral damage *)
  ok : bool;  (** codec round trip, replay fixed point, no crash *)
  sanitizer_flags : int;
  trace_bytes : int;
  note : string option;
  key : string;  (** the trial's generated input: config and seed *)
}

let trial ~seed ~index =
  let config = configs.(index mod Array.length configs) in
  let seed = Rng.split_seed ~seed ~index in
  let rec_ =
    Span.wrap "replay.record" (fun () -> Scenario.record ~config ~seed ~trials:1 ())
  in
  let bytes = Span.wrap "replay.encode" (fun () -> Trace.encode rec_.Scenario.trace) in
  let decoded = Span.wrap "replay.decode" (fun () -> Trace.decode bytes) in
  let replayed, round_trip =
    match decoded with
    | Ok t ->
        (Some (Span.wrap "replay.replay" (fun () -> Scenario.replay t)),
         Trace.equal t rec_.Scenario.trace)
    | Error _ -> (None, false)
  in
  let fixed_point =
    match replayed with
    | Some r -> Trace.equal r.Scenario.trace rec_.Scenario.trace && r.Scenario.crashes = []
    | None -> false
  in
  let crash_free = rec_.Scenario.crashes = [] in
  let contained =
    List.for_all (fun r -> r.Scenario.outcome = Scenario.Survived) rec_.Scenario.results
  in
  let ok = round_trip && fixed_point && crash_free in
  {
    contained;
    ok;
    sanitizer_flags = rec_.Scenario.sanitizer_flags;
    trace_bytes = String.length bytes;
    key = Printf.sprintf "%s/%d" config seed;
    note =
      (if ok then None
       else
         Some
           (Printf.sprintf "trial %d (%s, seed %d): round-trip=%b fixed-point=%b crash-free=%b"
              index config seed round_trip fixed_point crash_free));
  }

(* One shard's share of a window: [per_shard] consecutive trials. *)
let shard_trials ~seed ~first ~per_shard ~counts =
  let before = if counts then Metrics.snapshot () else Metrics.empty in
  let trials, secs =
    Outcome.timed (fun () ->
        Array.init per_shard (fun j ->
            let index = first + j in
            Span.set_op index;
            let t, s = Outcome.timed (fun () -> Span.wrap "storm.op" (fun () -> trial ~seed ~index)) in
            (t, s *. 1e6)))
  in
  let delta = if counts then Metrics.diff ~before ~after:(Metrics.snapshot ()) else Metrics.empty in
  (trials, delta, secs)

let run (o : Outcome.opts) =
  let per_shard = if o.tiny then 6 else 250 in
  let soak_trials = if o.tiny then 8 else 50 in
  (* Set-up: one preflight trial per config (node builds, recorder
     and sanitizer arming). *)
  let (), setup =
    Outcome.setup ~every:2 (fun () ->
        Array.iter
          (fun config -> ignore (Scenario.record ~config ~seed:o.seed ~trials:1 ()))
          configs)
  in
  (* A window: [per_shard] trials on each shard, then a sanitized,
     sharded soak.  Window 0 is the fixed prefix. *)
  let windows =
    Outcome.run_windows o ~nominal_s:0.55 ~prefix:1 ~setup (fun w ->
        let counts = o.counts && w = 0 in
        Outcome.timed (fun () ->
            let outs =
              Fleet.map ~domains:o.domains ~seed:o.seed ~shards (fun ~shard_seed:_ ~index ->
                  shard_trials ~seed:o.seed ~first:(((w * shards) + index) * per_shard) ~per_shard ~counts)
            in
            let soak =
              Span.wrap "resilience.soak" (fun () ->
                  Soak.run ~trials:soak_trials
                    ~seed:(Rng.split_seed ~seed:o.seed ~index:(-1 - w))
                    ~sanitize:true ~shards ~domains:o.domains ())
            in
            (outs, soak)))
  in
  let trials_of ((outs, _), _) =
    Array.to_list outs |> List.concat_map (fun (ts, _, _) -> Array.to_list ts)
  in
  let all = List.concat_map trials_of windows in
  let (first_outs, first_soak), _ = List.hd windows in
  (* The work is fixed by --seconds, so every trial is a deterministic
     input; ratios over all of them are steadier than over window 0. *)
  let pre = List.map fst all in
  let npre = List.length pre in
  let count p = List.length (List.filter p pre) in
  let bad = List.filter (fun (t, _) -> not t.ok) all in
  let soak_checks ((_, soak), _) =
    [
      ("soak budget_respected", soak.Soak.budget_respected);
      ("soak sibling_unperturbed", soak.Soak.sibling_unperturbed);
      ("soak sanitizer_flags = Some 0", soak.Soak.sanitizer_flags = Some 0);
    ]
  in
  let soak_bad =
    List.length (List.filter (fun w -> List.exists (fun (_, ok) -> not ok) (soak_checks w)) windows)
  in
  let host, halves, host_how =
    Outcome.of_windows setup
      (List.map
         (fun w ->
           let ts = trials_of w in
           { Outcome.ops = List.length ts; secs = snd w; lat_us = Array.of_list (List.map snd ts) })
         windows)
  in
  let trace_bytes ts = List.fold_left (fun acc t -> acc + t.trace_bytes) 0 ts in
  {
    Outcome.setup_s = Outcome.setup_s setup;
    peak_rss_mib = Outcome.peak_rss_mib setup;
    host;
    halves;
    host_how;
    attempted = List.length all;
    failed = List.length bad + soak_bad;
    checks =
      ("every trial: codec round trip, replay fixed point, no crash-oracle hit", bad = [])
      :: List.map
           (fun (name, _) ->
             (name ^ " in every window", List.for_all (fun w -> List.assoc name (soak_checks w)) windows))
           (soak_checks (List.hd windows));
    sim =
      [
        ("contained_ratio", float_of_int (count (fun t -> t.contained)) /. float_of_int npre);
        ("replay.trace_kb", float_of_int (trace_bytes pre) /. 1024. /. float_of_int npre);
        ("resilience.supervisor.events", float_of_int (List.length first_soak.Soak.timeline));
        ( "analysis.sanitizer.flags",
          float_of_int
            (List.fold_left (fun acc t -> acc + t.sanitizer_flags) 0 pre
            + Option.value first_soak.Soak.sanitizer_flags ~default:0) );
      ];
    counts =
      (if o.counts then
         Array.fold_left (fun acc (_, d, _) -> Metrics.merge acc d) first_soak.Soak.metrics_delta first_outs
       else Metrics.empty);
    layer = [ ("replay.bytes", float_of_int (trace_bytes pre)) ];
    shard_s = Array.map (fun (_, _, s) -> s) first_outs;
    inputs =
      Digest.to_hex
        (Digest.string (String.concat ";" (List.map (fun (t, _) -> t.key) (trials_of (List.hd windows)))));
    report =
      Printf.sprintf
        "storm: %d trials over %d configs in %d windows of %d shards x %d trials, each window then a \
         %d-trial sanitized soak (window 0: %d faults, %d timeline events)"
        (List.length all) (Array.length configs) (List.length windows) shards per_shard soak_trials
        first_soak.Soak.faults_injected (List.length first_soak.Soak.timeline)
      :: List.filter_map (fun (t, _) -> t.note) all;
  }
