open Covirt_workloads
module Machine = Covirt_hw.Machine
module Hobbes = Covirt_hobbes.Hobbes
module Pisces = Covirt_pisces.Pisces
module Kitten = Covirt_kitten.Kitten
module Rng = Covirt_sim.Rng
module Metrics = Covirt_obs.Metrics

type kernel = Stream | Gups | Hpcg | Minife | Md of Lammps.bench

let all = [ Hpcg; Minife; Md Lammps.Lj; Md Eam; Md Chain; Md Chute; Stream; Gups ]

let name = function
  | Stream -> "stream"
  | Gups -> "gups"
  | Hpcg -> "hpcg"
  | Minife -> "minife"
  | Md b -> Lammps.bench_name b

let kernels = List.map name all
let gib = Covirt_sim.Units.gib

type layout = { lname : string; cores : int list; mem : (int * int) list }

(* The paper's testbed shape: 2 zones x 5 cores, core 0 the host's;
   the enclave gets 14 GiB. *)
let layouts =
  [
    { lname = "1x1"; cores = [ 1 ]; mem = [ (0, 14 * gib) ] };
    {
      lname = "8x2";
      cores = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      mem = [ (0, 7 * gib); (1, 7 * gib) ];
    };
  ]

type cell = {
  kernel : kernel;
  config : string * Covirt.Config.t;
  layout : layout;
  mseed : int;
}

(* What a cell measured: the kernel's figure of merit (a rate, or a
   loop time for LAMMPS), its self-check, and the STREAM checksum. *)
type measured = {
  value : float;
  is_rate : bool;
  ok : bool;
  checksum : float;
  sim_s : float;  (** simulated seconds on the first enclave core *)
}

let boot ~seed (_, config) layout =
  let m =
    Span.wrap "hw.machine_create" (fun () ->
        Machine.create ~seed ~zones:2 ~cores_per_zone:5 ~mem_per_zone:(32 * gib) ())
  in
  let h = Span.wrap "hobbes.create" (fun () -> Hobbes.create m ~host_core:0) in
  ignore (Span.wrap "core.enable" (fun () -> Covirt.enable (Hobbes.pisces h) ~config));
  match
    Span.wrap "hobbes.launch_enclave" (fun () ->
        Hobbes.launch_enclave h ~name:"hpc" ~cores:layout.cores ~mem:layout.mem
          ~timer_hz:10.0 ())
  with
  | Ok (e, k) -> (h, e, k)
  | Error msg -> failwith ("hpc boot: " ^ msg)

let ok_or what = function Ok r -> r | Error e -> failwith (what ^ ": " ^ e)

let run_kernel kernel ctxs =
  let m ?(is_rate = true) ?(checksum = 0.) value ok =
    { value; is_rate; ok; checksum; sim_s = 0. }
  in
  match kernel with
  | Stream ->
      let r = ok_or "stream" (Stream.run ctxs ~elems:Stream.default_elems ~iters:10 ()) in
      m r.Stream.triad_mb_s (Float.is_finite r.Stream.checksum) ~checksum:r.Stream.checksum
  | Gups ->
      let r = ok_or "gups" (Random_access.run ctxs ~log2_table:Random_access.default_log2_table ()) in
      m r.Random_access.gups (r.Random_access.verify_errors = 0)
  | Hpcg ->
      let r = ok_or "hpcg" (Hpcg.run ctxs ~real_dim:20 ~iterations:50 ()) in
      m r.Hpcg.gflops (r.Hpcg.final_residual < 1.0)
  | Minife ->
      let r = ok_or "minife" (Minife.run ctxs ~real_dim:16 ~iterations:60 ()) in
      m r.Minife.solve_gflops (r.Minife.final_residual < 1.0)
  | Md bench ->
      let r = ok_or "lammps" (Lammps.run ctxs ~bench ~real_atoms:2048 ~steps:100 ()) in
      m ~is_rate:false r.Lammps.loop_seconds r.Lammps.stable

let run_cell c =
  let h, e, k = boot ~seed:c.mseed c.config c.layout in
  let ps = Hobbes.pisces h in
  let ctxs = List.map (fun core -> Kitten.context k ~core) (Kitten.cores k) in
  let core0 = List.hd c.layout.cores in
  let tsc0 = Pisces.core_tsc ps core0 in
  let r = Span.wrap ("workloads." ^ name c.kernel) (fun () -> run_kernel c.kernel ctxs) in
  let sim_s = float_of_int (Pisces.core_tsc ps core0 - tsc0) /. (Pisces.tsc_ghz ps *. 1e9) in
  Span.wrap "pisces.destroy" (fun () -> Pisces.destroy ps e);
  { r with sim_s }

(* [Error] when the cell raised: a node loss or a harness failure. *)
(* [Error] when the cell raised: a node loss or a harness failure. *)
type cell_result = { cell : cell; m : (measured, string) result; host_us : float }

let run_shard cells ~counts =
  let before = if counts then Metrics.snapshot () else Metrics.empty in
  let results, secs =
    Outcome.timed (fun () ->
        Array.map
          (fun cell ->
            Span.set_op cell.mseed;
            let m, s =
              Outcome.timed (fun () ->
                  Span.wrap "hpc.op" (fun () ->
                      match run_cell cell with
                      | m -> Ok m
                      | exception e -> Error (Printexc.to_string e)))
            in
            { cell; m; host_us = s *. 1e6 })
          cells)
  in
  let delta =
    if counts then Metrics.diff ~before ~after:(Metrics.snapshot ()) else Metrics.empty
  in
  (results, delta, secs)

let slowdown ~is_rate ~base v =
  if is_rate then (base -. v) /. base *. 100. else (v -. base) /. base *. 100.

(* Paper figures beside each kernel's simulated overhead.  RandomAccess
   mem+ipi is the point the cost model's vapic_tlbmiss_tax was fitted
   to, so it is calibration, not held-out agreement. *)
let paper = function
  | "gups" -> "paper: mem 1.8%, mem+ipi 3.1% (mem+ipi is the calibration point, vapic_tlbmiss_tax)"
  | "hpcg" -> "paper: worst case 1.4%"
  | "stream" | "minife" -> "paper: ~0%"
  | _ -> "paper: Fig. 8 bars, no single figure"

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let run (o : Outcome.opts) =
  let presets = Array.of_list Covirt.Config.presets in
  let nconf = Array.length presets in
  let kernels_run = if o.tiny then [ Stream; Gups ] else all in
  (* One window is one config's cells: every kernel on every layout. *)
  let window_cells w =
    let config = presets.(w mod nconf) in
    List.concat_map (fun kernel -> List.map (fun layout -> (kernel, layout)) layouts) kernels_run
    |> List.mapi (fun i (kernel, layout) ->
           let index = (w * 2 * List.length kernels_run) + i in
           { kernel; config; layout; mseed = Rng.split_seed ~seed:o.seed ~index })
    |> Array.of_list
  in
  let shards = 2 in
  (* Set-up: boot every (config, layout) node shape once as a preflight. *)
  let (), setup =
    Outcome.setup ~every:1 (fun () ->
        Array.iter
          (fun config ->
            List.iter
              (fun layout ->
                let h, e, _ = boot ~seed:o.seed config layout in
                Pisces.destroy (Hobbes.pisces h) e)
              layouts)
          presets)
  in
  let windows =
    Outcome.run_windows o ~nominal_s:2.4 ~prefix:nconf ~setup (fun w ->
        let cells = window_cells w in
        let shard_outs, secs =
          Outcome.timed (fun () ->
              Covirt_fleet.Fleet.map ~domains:o.domains ~seed:o.seed ~shards
                (fun ~shard_seed:_ ~index ->
                  let lo, hi = Covirt_fleet.Fleet.slice ~n:(Array.length cells) ~shards index in
                  run_shard (Array.sub cells lo (hi - lo)) ~counts:(o.counts && w < nconf)))
        in
        (shard_outs, secs))
  in
  let results_of (shard_outs, _) =
    Array.to_list shard_outs |> List.concat_map (fun (r, _, _) -> Array.to_list r)
  in
  let prefix = List.filteri (fun i _ -> i < nconf) windows in
  let r1 = List.concat_map results_of prefix in
  (* Host times are scaled by the host speed beside their window. *)
  let all_results =
    List.concat
      (List.mapi
         (fun w win ->
           let sp = Outcome.window_speed setup w in
           List.map (fun r -> { r with host_us = r.host_us *. sp }) (results_of win))
         windows)
  in
  let key (r : cell_result) = (name r.cell.kernel, fst r.cell.config, r.cell.layout.lname) in
  let find k =
    List.find_map (fun r -> if key r = k then Result.to_option r.m else None) r1
  in
  let ovh cfg kname lname =
    match (find (kname, "native", lname), find (kname, cfg, lname)) with
    | Some b, Some v -> Some (slowdown ~is_rate:b.is_rate ~base:b.value v.value)
    | _ -> None
  in
  let knames = List.map name kernels_run in
  let mem_ipi k = List.filter_map (fun l -> ovh "mem+ipi" k l.lname) layouts in
  let cell_ok r = match r.m with Ok m -> m.ok | Error _ -> false in
  let check_of ks =
    List.for_all (fun r -> (not (List.mem (name r.cell.kernel) ks)) || cell_ok r) all_results
  in
  let stream_equal =
    List.for_all
      (fun l ->
        match
          List.filter_map
            (fun r ->
              match r.m with
              | Ok m when r.cell.kernel = Stream && r.cell.layout.lname = l.lname -> Some m.checksum
              | _ -> None)
            r1
        with
        | [] -> true
        | s :: rest -> List.for_all (Float.equal s) rest)
      layouts
  in
  (* Later passes run the same cells on fresh machines: the simulated
     results must match pass one exactly. *)
  let sim_of r = Result.map (fun m -> (m.value, m.sim_s)) r.m in
  let reproduces =
    List.for_all
      (fun r ->
        match find (key r) with Some m -> sim_of r = Ok (m.value, m.sim_s) | None -> false)
      all_results
  in
  let checks =
    [
      ("hpcg residual < 1", check_of [ "hpcg" ]);
      ("minife residual < 1", check_of [ "minife" ]);
      ("lammps stable", check_of [ "lj"; "eam"; "chain"; "chute" ]);
      ("gups verify_errors = 0", check_of [ "gups" ]);
      ("stream checksum equal across configs", stream_equal);
      ("every pass reproduces pass one", reproduces);
    ]
  in
  let contained = List.length (List.filter (fun r -> Result.is_ok r.m) r1) in
  let sim =
    [
      ("sim_overhead_pct", mean (List.concat_map mem_ipi knames));
      ("contained_ratio", float_of_int contained /. float_of_int (List.length r1));
      ( "sim_total_s",
        List.fold_left (fun acc r -> match r.m with Ok m -> acc +. m.sim_s | Error _ -> acc) 0. r1 );
    ]
    @ List.map (fun k -> ("workloads." ^ k ^ ".sim_overhead_pct", mean (mem_ipi k))) knames
  in
  let accuracy =
    "accuracy: simulated overhead vs native (mem, mem+ipi) per layout, beside the paper"
    :: List.map
         (fun k ->
           let pct cfg l =
             match ovh cfg k l.lname with Some v -> Printf.sprintf "%5.2f%%" v | None -> "  n/a"
           in
           Printf.sprintf "  %-7s %s   %s" k
             (String.concat "   "
                (List.map
                   (fun l -> Printf.sprintf "%s %s %s" l.lname (pct "mem" l) (pct "mem+ipi" l))
                   layouts))
             (paper k))
         knames
  in
  let raised =
    List.filter_map
      (fun r ->
        match r.m with
        | Error e ->
            Some
              (Printf.sprintf "  cell %s/%s/%s raised: %s" (name r.cell.kernel) (fst r.cell.config)
                 r.cell.layout.lname e)
        | Ok _ -> None)
      all_results
  in
  (* The same kernel on the same layout does the same host work under
     every config, so a kernel's host time on a layout is the median of
     its scaled cells across configs and passes. *)
  let median_host rs =
    let group r = (name r.cell.kernel, r.cell.layout.lname) in
    let times = Hashtbl.create 16 in
    List.iter
      (fun r ->
        Hashtbl.replace times (group r)
          (r.host_us :: Option.value ~default:[] (Hashtbl.find_opt times (group r))))
      rs;
    let per_cell =
      Array.of_list (List.map (fun r -> Stats.median (Array.of_list (Hashtbl.find times (group r)))) r1)
    in
    {
      Outcome.ops_per_s =
        float_of_int (Array.length per_cell) /. (Array.fold_left ( +. ) 0. per_cell /. 1e6);
      p50_us = Stats.quantile per_cell ~p:50.;
      p99_us = Stats.quantile per_cell ~p:99.;
      samples = List.length rs;
    }
  in
  let host = median_host all_results in
  let first, second = Outcome.halves all_results in
  let shard_s = Array.make shards 0. in
  List.iter (fun (outs, _) -> Array.iteri (fun i (_, _, s) -> shard_s.(i) <- shard_s.(i) +. s) outs) prefix;
  {
    Outcome.setup_s = Outcome.setup_s setup;
    peak_rss_mib = Outcome.peak_rss_mib setup;
    host;
    halves = (median_host first, median_host second);
    host_how =
      Printf.sprintf
        "%d cells, each scaled by the host speed beside its window (median %.3f of the reference \
         host); a kernel's host time on a layout is the median of its cells across configs and \
         passes (%d samples each); ops/s = pass cells / sum of those; percentiles over the pass's \
         cells"
        (List.length all_results) (Outcome.median_speed setup)
        (List.length all_results / (2 * List.length kernels_run));
    attempted = List.length all_results;
    failed = List.length (List.filter (fun r -> not (cell_ok r)) all_results);
    checks;
    sim;
    counts =
      List.fold_left
        (fun acc (outs, _) -> Array.fold_left (fun acc (_, d, _) -> Metrics.merge acc d) acc outs)
        Metrics.empty prefix;
    layer = [];
    shard_s;
    inputs =
      Digest.to_hex
        (Digest.string
           (String.concat ";" (List.map (fun r -> string_of_int r.cell.mseed) r1)));
    report =
      Printf.sprintf "hpc: %d windows of %d cells (one config each), %d cells" (List.length windows)
        (2 * List.length kernels_run) (List.length all_results)
      :: accuracy @ raised;
  }
