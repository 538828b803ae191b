open Covirt_workloads

type row = {
  config : string;
  detour_count : int;
  total_detour_us : float;
  noise_fraction : float;
  median_detour_us : float;
  max_detour_us : float;
  histogram : Covirt_sim.Histogram.t;
  detours : (float * float) list;  (* (at_us, duration_us) *)
}

let run ?(quick = false) ?(seed = 42) ?domains () =
  let duration_s = if quick then 0.5 else 2.0 in
  let presets = Array.of_list Covirt.Config.presets in
  (* One fleet shard per configuration.  Each leg is deterministic in
     (config, seed) — the shard seed is deliberately unused, so the
     rows match a sequential sweep exactly for any [domains]. *)
  let rows =
    Covirt_fleet.Fleet.map ?domains ~seed ~shards:(Array.length presets)
      (fun ~shard_seed:_ ~index ->
        let name, config = presets.(index) in
        (* Phase label per configuration: when the profiler is on,
           covirt-ctl stats can attribute cycles to each sweep leg. *)
        Covirt_obs.Profiler.set_phase name;
        Experiments.with_setup ~config ~seed (fun setup ->
            let ctx = List.hd (Experiments.contexts setup) in
            let result = Selfish.run ctx ~duration_s () in
            let durations =
              Array.of_list
                (List.map
                   (fun d -> d.Selfish.duration_us)
                   result.Selfish.detours)
            in
            {
              config = name;
              detour_count = List.length result.Selfish.detours;
              total_detour_us = result.Selfish.total_detour_us;
              noise_fraction = result.Selfish.noise_fraction;
              median_detour_us =
                (if Array.length durations = 0 then 0.0
                 else Covirt_sim.Stats.percentile durations ~p:50.0);
              max_detour_us = Array.fold_left Float.max 0.0 durations;
              histogram = result.Selfish.histogram;
              detours =
                List.map
                  (fun d -> (d.Selfish.at_us, d.Selfish.duration_us))
                  result.Selfish.detours;
            }))
  in
  Array.to_list rows

let table rows =
  let t =
    Covirt_sim.Table.create
      ~columns:
        [ "config"; "detours"; "total noise (us)"; "noise fraction";
          "median (us)"; "max (us)" ]
  in
  List.iter
    (fun r ->
      Covirt_sim.Table.add_row t
        [
          r.config;
          string_of_int r.detour_count;
          Covirt_sim.Table.cell_f r.total_detour_us;
          Format.asprintf "%.5f%%" (r.noise_fraction *. 100.0);
          Covirt_sim.Table.cell_f r.median_detour_us;
          Covirt_sim.Table.cell_f r.max_detour_us;
        ])
    rows;
  t

let histograms rows =
  String.concat ""
    (List.map
       (fun r ->
         Format.asprintf "-- %s --@.%a@." r.config Covirt_sim.Histogram.pp
           r.histogram)
       rows)

let scatter rows ~duration_s =
  (* time on the x axis (columns), detour magnitude as a glyph: the
     shape of the paper's Fig. 3 panels *)
  let columns = 72 in
  let duration_us = duration_s *. 1e6 in
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      let cells = Array.make columns ' ' in
      List.iter
        (fun (at_us, duration) ->
          let col =
            min (columns - 1)
              (int_of_float (at_us /. duration_us *. float_of_int columns))
          in
          let glyph =
            if duration < 1.0 then '.'
            else if duration < 2.0 then ':'
            else if duration < 4.0 then '*'
            else '#'
          in
          (* keep the largest glyph per column *)
          let rank c =
            match c with '.' -> 1 | ':' -> 2 | '*' -> 3 | '#' -> 4 | _ -> 0
          in
          if rank glyph > rank cells.(col) then cells.(col) <- glyph)
        row.detours;
      Printf.bprintf buf "%-8s |%s|\n" row.config
        (String.init columns (Array.get cells)))
    rows;
  Printf.bprintf buf "%-8s  %s\n" "" (String.make columns '-');
  Printf.bprintf buf "%-8s  0s%*s\n" "" (columns - 2)
    (Printf.sprintf "%.1fs" duration_s);
  Buffer.contents buf
