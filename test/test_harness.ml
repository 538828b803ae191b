(* Harness tests: each figure runner reproduces the paper's qualitative
   result (quick problem sizes; the full sizes run in bench/main.exe). *)

open Covirt_harness

let test_table1_contents () =
  Alcotest.(check int) "six benchmarks" 6 (List.length Experiments.table1);
  Alcotest.(check bool) "lammps date" true
    (List.exists (fun (n, v, _) -> n = "LAMMPS" && v = "3 Mar 2020")
       Experiments.table1)

let test_registry_names_unique () =
  let names = List.map (fun r -> r.Registry.name) Registry.all in
  Alcotest.(check (list string)) "no name twice"
    (List.sort_uniq String.compare names)
    (List.sort String.compare names)

let test_layouts () =
  Alcotest.(check int) "four layouts" 4 (List.length Experiments.scaling_layouts);
  List.iter
    (fun l ->
      let mem =
        List.fold_left (fun acc (_, b) -> acc + b) 0 l.Experiments.mem
      in
      Alcotest.(check int)
        (l.Experiments.layout_name ^ " memory fixed at 14GB")
        Experiments.enclave_mem_bytes mem)
    Experiments.scaling_layouts;
  Alcotest.(check int) "8-core layout" 8
    (List.length Experiments.layout_8x2.Experiments.cores)

let test_fig3_profiles_similar () =
  let rows = Fig3.run ~quick:true () in
  Alcotest.(check int) "five configs" 5 (List.length rows);
  let counts = List.map (fun r -> r.Fig3.detour_count) rows in
  (* the noise sources are identical in every configuration *)
  List.iter
    (fun c -> Alcotest.(check int) "same detour count" (List.hd counts) c)
    counts;
  (* noise fraction stays tiny everywhere (an LWK property) *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "noise < 0.01%" true (r.Fig3.noise_fraction < 1e-4))
    rows

let test_fig4_no_overhead () =
  let points = Fig4.run ~quick:true () in
  Alcotest.(check bool) "sizes present" true (List.length points >= 6);
  List.iter
    (fun p ->
      Alcotest.(check bool) "attach overhead < 2%" true
        (Float.abs p.Fig4.overhead < 0.02))
    points;
  (* latency grows with size (page-list dominated) *)
  let lat = List.map (fun p -> p.Fig4.native_us) points in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "latency monotone in size" true (monotone lat)

let test_fig5_shapes () =
  let rows = Fig5.run ~quick:false () in
  let find name = List.find (fun r -> r.Fig5.config = name) rows in
  (* STREAM: all configurations within noise of native *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Fig5.config ^ " stream flat")
        true
        (Float.abs r.Fig5.stream_overhead < 0.005))
    rows;
  (* GUPS: mem ~1.8%, mem+ipi worst ~3.1% *)
  let mem = find "mem" and mem_ipi = find "mem+ipi" and none = find "none" in
  Alcotest.(check bool) "mem in [1%,2.5%]" true
    (mem.Fig5.gups_overhead > 0.01 && mem.Fig5.gups_overhead < 0.025);
  Alcotest.(check bool) "mem+ipi in [2.5%,4%]" true
    (mem_ipi.Fig5.gups_overhead > 0.025 && mem_ipi.Fig5.gups_overhead < 0.04);
  Alcotest.(check bool) "mem+ipi is worst" true
    (List.for_all (fun r -> r.Fig5.gups_overhead <= mem_ipi.Fig5.gups_overhead) rows);
  Alcotest.(check bool) "none is small" true (none.Fig5.gups_overhead < 0.01)

let test_fig6_minife_flat () =
  let rows = Fig6.run ~quick:true () in
  Alcotest.(check int) "four layouts" 4 (List.length rows);
  List.iter
    (fun row ->
      List.iter
        (fun cell ->
          Alcotest.(check bool)
            (row.Layout_sweep.layout ^ "/" ^ cell.Layout_sweep.config
           ^ " flat")
            true
            (Float.abs cell.Layout_sweep.overhead < 0.005))
        row.Layout_sweep.cells)
    rows;
  (* scaling: 8 cores beat 1 core *)
  let gflops_of layout =
    let row = List.find (fun r -> r.Layout_sweep.layout = layout) rows in
    (List.find (fun c -> c.Layout_sweep.config = "native") row.Layout_sweep.cells)
      .Layout_sweep.gflops
  in
  Alcotest.(check bool) "scales with cores" true
    (gflops_of "8 cores / 2 zones" > gflops_of "1 core / 1 zone")

let test_fig7_hpcg_bounded () =
  let rows = Fig7.run ~quick:true () in
  let worst = Layout_sweep.worst_overhead rows in
  Alcotest.(check bool) "worst in [0.5%, 2%]" true (worst > 0.005 && worst < 0.02);
  (* overhead present in every covirt config (the baseline-penalty
     observation) but never large *)
  List.iter
    (fun row ->
      List.iter
        (fun cell ->
          Alcotest.(check bool) "bounded" true
            (cell.Layout_sweep.overhead < 0.02))
        row.Layout_sweep.cells)
    rows

let test_fig8_chute_sensitivity () =
  let rows = Fig8.run ~quick:true () in
  Alcotest.(check int) "four benches" 4 (List.length rows);
  Alcotest.(check bool) "chute most sensitive" true
    (Fig8.chute_is_most_sensitive rows);
  (* native and no-feature are fastest for chute *)
  let chute = List.find (fun r -> r.Fig8.bench = "chute") rows in
  let time name =
    (List.find (fun c -> c.Fig8.config = name) chute.Fig8.cells)
      .Fig8.loop_seconds
  in
  Alcotest.(check bool) "native fastest" true (time "native" <= time "mem+ipi");
  Alcotest.(check bool) "none second" true (time "none" <= time "mem+ipi");
  (* lj/eam/chain are flat *)
  List.iter
    (fun row ->
      if row.Fig8.bench <> "chute" then
        List.iter
          (fun cell ->
            Alcotest.(check bool)
              (row.Fig8.bench ^ " flat")
              true (cell.Fig8.overhead < 0.005))
          row.Fig8.cells)
    rows

let test_scale_flat () =
  let rows = Scale.run ~max_enclaves:3 ~quick:true () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "per-enclave cost independent of neighbours" true
        (r.Scale.worst_vs_solo < 0.005);
      (* controller footprint grows linearly: leaves per enclave constant *)
      Alcotest.(check int) "EPT leaves linear"
        (r.Scale.enclaves * r.Scale.total_ept_leaves
        / max 1 r.Scale.enclaves)
        r.Scale.total_ept_leaves)
    rows

let test_campaign_ordering () =
  let rows = Campaign.run ~trials:30 () in
  let rate name =
    Campaign.containment_rate
      (List.find (fun r -> r.Campaign.config = name) rows)
  in
  (* protection strictly improves containment, and the full config
     never loses the node or a neighbour *)
  Alcotest.(check bool) "native worst" true (rate "native" < rate "mem");
  Alcotest.(check bool) "mem+ipi beats mem" true
    (rate "mem+ipi" >= rate "mem");
  let full = List.find (fun r -> r.Campaign.config = "full(+msr+io)") rows in
  Alcotest.(check int) "full: node never down" 0 full.Campaign.node_down;
  Alcotest.(check int) "full: no collateral" 0 full.Campaign.collateral;
  let native = List.find (fun r -> r.Campaign.config = "native") rows in
  Alcotest.(check bool) "native loses nodes" true (native.Campaign.node_down > 0)

let test_isolation_shape () =
  let rows = Isolation.run ~quick:true () in
  let find name = List.find (fun r -> r.Isolation.scenario = name) rows in
  let quiet = find "quiet node" in
  let cross = find "pressure in the other zone" in
  let local = find "pressure in the enclave's zone" in
  Alcotest.(check (float 1e-9)) "cross-zone pressure free" 0.0
    cross.Isolation.interference_native;
  Alcotest.(check bool) "local pressure hurts" true
    (local.Isolation.interference_native > 0.3);
  (* protection neither causes nor cures interference *)
  Alcotest.(check (float 1e-3)) "covirt sees identical interference"
    local.Isolation.interference_native local.Isolation.interference_covirt;
  Alcotest.(check (float 1e-9)) "quiet baseline" 0.0
    quiet.Isolation.interference_native

let test_determinism_across_runs () =
  let a = Fig5.run ~quick:true () and b = Fig5.run ~quick:true () in
  List.iter2
    (fun ra rb ->
      Alcotest.(check (float 0.0)) "identical gups" ra.Fig5.gups rb.Fig5.gups)
    a b

let () =
  Alcotest.run "harness"
    [
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_contents;
          Alcotest.test_case "layouts" `Quick test_layouts;
          Alcotest.test_case "registry names unique" `Quick
            test_registry_names_unique;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig3 noise similar" `Quick test_fig3_profiles_similar;
          Alcotest.test_case "fig4 attach no overhead" `Quick test_fig4_no_overhead;
          Alcotest.test_case "fig5 shapes" `Slow test_fig5_shapes;
          Alcotest.test_case "fig6 minife flat" `Quick test_fig6_minife_flat;
          Alcotest.test_case "fig7 hpcg bounded" `Quick test_fig7_hpcg_bounded;
          Alcotest.test_case "fig8 chute sensitive" `Quick test_fig8_chute_sensitivity;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "scale flat" `Quick test_scale_flat;
          Alcotest.test_case "campaign ordering" `Quick test_campaign_ordering;
          Alcotest.test_case "isolation shape" `Quick test_isolation_shape;
        ] );
    ]
