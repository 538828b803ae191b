(* What one run of a workload hands back to the suite. *)

type opts = {
  seed : int;
  seconds : float;  (** timed-phase budget, host seconds *)
  domains : int;  (** placement only: sim results never depend on it *)
  counts : bool;
      (** record [Covirt_obs.Metrics] deltas over the fixed prefix *)
  tiny : bool;  (** self-test size: the prefix only, a few ops *)
}

(* The timed phase is a sequence of windows, each a fixed amount of
   work.  A shared host's speed drifts by tens of percent for seconds
   to minutes at a time; every window's host figures are scaled by the
   host speed measured on either side of it (see {!Calib}). *)
type window = {
  ops : int;
  secs : float;  (** host seconds *)
  lat_us : float array;  (** per-op host latency *)
}

(* Host figures of a run, or of one half of it. *)
type host = {
  ops_per_s : float;
  p50_us : float;  (** per-op host latency *)
  p99_us : float;
  samples : int;  (** latency samples behind the percentiles *)
}

type t = {
  setup_s : float;
      (** process start to first timed op, with the set-up counted at
          the median of its repeats (see {!setup}); speed-scaled *)
  peak_rss_mib : float;
      (** host peak RSS of the set-up and the windows, throwaway
          set-up builds excluded *)
  host : host;  (** speed-scaled (see {!Calib}) *)
  halves : host * host;  (** the same figures from each half of the run *)
  host_how : string;  (** how [host] was taken, for the report *)
  attempted : int;
  failed : int;  (** failed, refused or check-failing ops *)
  checks : (string * bool) list;  (** named output checks *)
  sim : (string * float) list;
      (** deterministic results (simulated cycles, ratios, sizes) from
          the fixed prefix or, where the workload says so, from every
          window; identical at any domain count and with tracing on or
          off *)
  counts : Covirt_obs.Metrics.snapshot;
      (** obs counter deltas over the fixed prefix ([empty] unless
          [opts.counts]) *)
  layer : (string * float) list;
      (** host-side per-layer extras that are not span totals (leaves
          walked, bytes encoded, ...) *)
  shard_s : float array;
      (** per-shard host seconds over the prefix, for
          [fleet.shard_skew] *)
  inputs : string;  (** digest of the inputs generated from the seed *)
  report : string list;  (** human-readable lines printed before the result *)
}

let process_start = Stats.now ()

let timed f =
  let t0 = Stats.now () in
  let v = f () in
  (v, Stats.now () -. t0)

let halves xs =
  let n = List.length xs / 2 in
  (List.filteri (fun i _ -> i < n) xs, List.filteri (fun i _ -> i >= List.length xs - n) xs)

(* Set-up is timed once before the first timed op, and again on a
   throwaway build before every [every]-th window, so its repeats are
   spread through the run like the windows.  A later change that moves
   work into set-up shows in every one of them. *)
type 'a setup = {
  build : unit -> 'a;
  every : int;
  init_s : float;  (** process start to the first set-up *)
  mutable times : (float * int) list;
      (** host seconds of each set-up, with the index of the speed
          sample taken right after it *)
  mutable samples : float array;
      (** {!Calib.sample} before every window and after the last *)
  mutable rss_mib : float option;
      (** peak RSS before the first throwaway build, which would
          otherwise coexist with the live state and set the peak *)
}

let setup ~every build =
  let begun = Stats.now () in
  let v, s = timed build in
  (v, { build; every; init_s = begun -. process_start; times = [ (s, 0) ]; samples = [||]; rss_mib = None })

(* Host speed relative to the reference host: 1 there, 0.5 on a host
   that runs the reference kernel at half its speed.  A window's speed
   is taken from the samples on either side of it. *)
let sample_speed st k = Calib.reference_s /. st.samples.(k)
let window_speed st i = 2. *. Calib.reference_s /. (st.samples.(i) +. st.samples.(i + 1))
let median_speed st = Stats.median (Array.map (fun c -> Calib.reference_s /. c) st.samples)

let setup_s st =
  (st.init_s *. sample_speed st 0)
  +. Stats.median (Array.of_list (List.map (fun (s, k) -> s *. sample_speed st k) st.times))

let peak_rss_mib st = match st.rss_mib with Some v -> v | None -> Stats.peak_rss_mib ()

(* Throughput is the median of per-window ops/s; latency percentiles
   pool the ops of the fastest quarter of the windows. *)
let window_host ws =
  let rate w = float_of_int w.ops /. w.secs in
  let rates = Array.of_list (List.map rate ws) in
  let cut = Stats.quantile rates ~p:75. in
  let lat = Array.concat (List.filter_map (fun w -> if rate w >= cut then Some w.lat_us else None) ws) in
  {
    ops_per_s = Stats.median rates;
    p50_us = Stats.quantile lat ~p:50.;
    p99_us = Stats.quantile lat ~p:99.;
    samples = Array.length lat;
  }

let of_windows st ws =
  let raw = window_host ws in
  let ws =
    List.mapi
      (fun i w ->
        let sp = window_speed st i in
        { w with secs = w.secs *. sp; lat_us = Array.map (fun l -> l *. sp) w.lat_us })
      ws
  in
  let a, b = halves ws in
  ( window_host ws,
    (window_host a, window_host b),
    Printf.sprintf
      "%d windows, each scaled by the host speed beside it (median %.3f of the reference host; \
       unscaled ops/s %.6g); ops/s is the median over windows, latency pools the %d ops of the \
       fastest quarter of the windows"
      (List.length ws) (median_speed st) raw.ops_per_s (window_host ws).samples )

(* Run windows [0], [1], ...: as many as fill [seconds] at [nominal_s]
   host seconds per window, and at least [prefix] (exactly [prefix] in
   [tiny] mode).  The amount of work is fixed by [seconds], not by the
   clock, so every run of a workload measures the same windows and a
   slow spell cannot change which windows count.
   [nominal_s] is the window's length on the host the bounds were set
   on (a 2-vCPU Xeon VM). *)
let run_windows (o : opts) ~prefix ~nominal_s ~setup f =
  let n = if o.tiny then prefix else max prefix (int_of_float (Float.ceil (o.seconds /. nominal_s))) in
  let samples = Array.make (n + 1) nan in
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      if i > 0 && i mod setup.every = 0 then begin
        if setup.rss_mib = None then setup.rss_mib <- Some (Stats.peak_rss_mib ());
        setup.times <- (snd (timed (fun () -> ignore (setup.build ()))), i) :: setup.times
      end;
      samples.(i) <- Calib.sample ();
      go (i + 1) (f i :: acc)
    end
  in
  let ws = go 0 [] in
  samples.(n) <- Calib.sample ();
  setup.samples <- samples;
  ws
