type cell = { config : string; gflops : float; overhead : float }
type row = { layout : string; cells : cell list }

let run measure =
  List.map
    (fun layout ->
      let raws =
        List.map
          (fun (name, config) -> (name, measure ~layout config))
          Covirt.Config.presets
      in
      let baseline = List.assoc "native" raws in
      {
        layout = layout.Experiments.layout_name;
        cells =
          List.map
            (fun (name, gflops) ->
              {
                config = name;
                gflops;
                overhead =
                  Covirt_sim.Stats.relative_slowdown_of_rates ~baseline
                    ~measured:gflops;
              })
            raws;
      })
    Experiments.scaling_layouts

let table rows =
  let configs = List.map fst Covirt.Config.presets in
  let t =
    Covirt_sim.Table.create
      ~columns:("layout" :: List.concat_map (fun c -> [ c; "ovh" ]) configs)
  in
  List.iter
    (fun row ->
      Covirt_sim.Table.add_row t
        (row.layout
        :: List.concat_map
             (fun cell ->
               [
                 Covirt_sim.Table.cell_f cell.gflops;
                 Covirt_sim.Table.cell_pct cell.overhead;
               ])
             row.cells))
    rows;
  t

let worst_overhead rows =
  List.fold_left
    (fun acc row ->
      List.fold_left
        (fun acc cell ->
          if cell.config = "native" then acc else Float.max acc cell.overhead)
        acc row.cells)
    0.0 rows
