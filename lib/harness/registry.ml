type block = Title of string | Table of Covirt_sim.Table.t | Text of string
type report = { blocks : block list; lines : string list }
type row = { name : string; run : quick:bool -> domains:int option -> report }

let report ?(lines = []) blocks = { blocks; lines }

(* Exact float: tables round to 4 significant digits, which could mask
   a small perturbation; the golden lines carry full precision. *)
let f = Printf.sprintf "%.17g"

let table1 ~quick:_ ~domains:_ =
  let t =
    Covirt_sim.Table.create ~columns:[ "Benchmark Name"; "Version"; "Parameters" ]
  in
  List.iter
    (fun (name, version, params) ->
      Covirt_sim.Table.add_row t [ name; version; params ])
    Experiments.table1;
  report [ Title "Table I: Benchmark Versions and Parameters"; Table t ]

let fig3 ~quick ~domains =
  let rows = Fig3.run ~quick ?domains () in
  report
    ~lines:
      (List.map
         (fun (r : Fig3.row) ->
           Printf.sprintf "fig3 %s detours=%d noise=%s" r.config r.detour_count
             (f r.noise_fraction))
         rows)
    [
      Title "Fig. 3: Selfish-Detour noise profiles";
      Table (Fig3.table rows);
      Text (Fig3.scatter rows ~duration_s:(if quick then 0.5 else 2.0) ^ "\n");
      Text (Fig3.histograms rows);
      Text
        "Paper: \"The different configurations show little variation in their\n\
         noise profiles\" — detour counts are identical; only interrupt\n\
         delivery stretches under full interception.\n";
    ]

let fig4 ~quick ~domains:_ =
  let points = Fig4.run ~quick () in
  report
    ~lines:
      (List.map
         (fun (p : Fig4.point) ->
           Printf.sprintf "fig4 native_us=%s covirt_us=%s overhead=%s"
             (f p.native_us) (f p.covirt_us) (f p.overhead))
         points)
    [
      Title "Fig. 4: XEMEM attach delay vs region size";
      Table (Fig4.table points);
      Text
        "Paper: \"Covirt imposes little to no overhead for this range of\n\
         region sizes\" — the controller's coalesced EPT update is masked\n\
         by the page-frame-list transmission both configurations pay.\n";
    ]

let fig5 ~quick ~domains =
  let rows = Fig5.run ~quick ?domains () in
  report
    ~lines:
      (List.map
         (fun (r : Fig5.row) ->
           Printf.sprintf "fig5 %s triad=%s copy=%s gups=%s so=%s go=%s"
             r.config (f r.triad_mb_s) (f r.copy_mb_s) (f r.gups)
             (f r.stream_overhead) (f r.gups_overhead))
         rows)
    [
      Title "Fig. 5(a): STREAM";
      Table (Fig5.stream_table rows);
      Title "Fig. 5(b): RandomAccess";
      Table (Fig5.gups_table rows);
      Text
        "Paper: STREAM comparable to native in all configurations;\n\
         RandomAccess worst case 3.1% (memory+IPI), memory-only 1.8%.\n";
    ]

(* Figs. 6-7 pin one golden line per layout and configuration. *)
let sweep_lines fig rows =
  List.concat_map
    (fun (r : Layout_sweep.row) ->
      List.map
        (fun (c : Layout_sweep.cell) ->
          Printf.sprintf "%s %s %s gflops=%s overhead=%s" fig r.layout c.config
            (f c.gflops) (f c.overhead))
        r.cells)
    rows

let fig6 ~quick ~domains:_ =
  let rows = Fig6.run ~quick () in
  report ~lines:(sweep_lines "fig6" rows)
    [
      Title "Fig. 6: MiniFE scaling over CPU-core/NUMA-zone layouts";
      Table (Layout_sweep.table rows);
      Text
        "Paper: \"Covirt imposes little to no overhead on MiniFE across all\n\
         configurations.\"\n";
    ]

let fig7 ~quick ~domains:_ =
  let rows = Fig7.run ~quick () in
  report ~lines:(sweep_lines "fig7" rows)
    [
      Title "Fig. 7: HPCG scaling over CPU-core/NUMA-zone layouts";
      Table (Layout_sweep.table rows);
      Text
        (Printf.sprintf
           "Worst overhead across layouts and configs: %.2f%% (paper: 1.4%%).\n"
           (100.0 *. Layout_sweep.worst_overhead rows));
    ]

let fig8 ~quick ~domains:_ =
  let rows = Fig8.run ~quick () in
  report
    ~lines:
      (List.concat_map
         (fun (r : Fig8.row) ->
           List.map
             (fun (c : Fig8.cell) ->
               Printf.sprintf "fig8 %s %s loop_s=%s overhead=%s" r.bench
                 c.config (f c.loop_seconds) (f c.overhead))
             r.cells)
         rows)
    [
      Title "Fig. 8: LAMMPS loop times (8 cores / 2 NUMA zones)";
      Table (Fig8.table rows);
      Text
        (Printf.sprintf
           "Chute most sensitive: %b (paper: \"Chute shows the most sensitivity\n\
            to the protections being enabled, with the native and no-feature\n\
            configurations performing the best\").\n"
           (Fig8.chute_is_most_sensitive rows));
    ]

let ablate_coalesce ~quick ~domains =
  report
    [
      Title "Ablation: EPT large-page coalescing (RandomAccess)";
      Table (Ablate.coalescing_table (Ablate.coalescing ~quick ?domains ()));
    ]

let ablate_piv ~quick:_ ~domains:_ =
  report
    [
      Title "Ablation: posted interrupts vs full APIC virtualization";
      Table (Ablate.piv_table (Ablate.piv_vs_full ()));
    ]

let ablate_sync ~quick ~domains:_ =
  report
    [
      Title "Ablation: asynchronous vs synchronous configuration updates";
      Table (Ablate.sync_table (Ablate.sync_vs_async ~quick ()));
    ]

let compare ~quick ~domains:_ =
  report
    [
      Title "Comparison: Covirt vs traditional virtualization (Fig. 1b)";
      Table (Compare_virt.ipc_table (Compare_virt.ipc ()));
      Table (Compare_virt.sharing_table (Compare_virt.sharing ~quick ()));
      Text
        "Covirt's IPC rides shared identity mappings with only a whitelist\n\
         check on the doorbell; full virtualization pays two exit pairs and\n\
         a hypervisor copy per message, and a balloon/remap round trip for\n\
         every sharing-topology change.\n";
    ]

let noise ~quick:_ ~domains:_ =
  report
    [
      Title "OS noise: host Linux core vs LWK enclave vs protected enclave";
      Table (Noise_compare.table (Noise_compare.run ()));
      Text
        "The LWK buys orders of magnitude in noise; Covirt does not give\n\
         it back.\n";
    ]

let campaign ~trials ~domains =
  let rows = Campaign.run ~trials ?domains () in
  report
    ~lines:
      (List.map
         (fun (r : Campaign.row) ->
           Printf.sprintf
             "campaign %s contained=%d down=%d collateral=%d latent=%d"
             r.config r.contained r.node_down r.collateral r.latent)
         rows)
    [
      Title "Fault-injection campaign: containment rates by configuration";
      Table (Campaign.table rows);
      Text
        "Random faults from the paper's taxonomy against a two-tenant node.\n\
         Each feature contains exactly its own fault classes (mem: wild\n\
         writes; ipi: errant vectors; msr+io: register/port abuse; the\n\
         base hypervisor: aborts) — with every feature on, no fault kills\n\
         the node or touches the other tenant; the residue is latent\n\
         writes to free memory inside the attacker's own blast radius.\n";
    ]

let isolation ~quick ~domains:_ =
  report
    [
      Title "Performance isolation: bandwidth pressure across the partition";
      Table (Isolation.table (Isolation.run ~quick ()));
      Text
        "Pressure in the other NUMA zone is free; pressure in the enclave's\n\
         own zone costs the same with and without Covirt — protection\n\
         neither causes nor cures bandwidth interference.\n";
    ]

let scale ~quick ~domains =
  report
    [
      Title "Scale: protection cost vs co-resident enclave count";
      Table (Scale.table (Scale.run ~quick ?domains ()));
      Text
        "Per-core hypervisor contexts and per-enclave EPTs: the protection\n\
         cost each enclave pays is independent of its neighbours.\n";
    ]

let kernels ~quick:_ ~domains:_ =
  report
    [
      Title "Generalizability: the co-kernel architecture matrix";
      Table (Kernels.table (Kernels.matrix ()));
      Text
        "Three kernel architectures from different points of the paper's\n\
         integration axis, all protected by the same controller with zero\n\
         kernel-specific code.\n";
    ]

let all =
  [
    { name = "table1"; run = table1 };
    { name = "fig3"; run = fig3 };
    { name = "fig4"; run = fig4 };
    { name = "fig5"; run = fig5 };
    { name = "fig6"; run = fig6 };
    { name = "fig7"; run = fig7 };
    { name = "fig8"; run = fig8 };
    { name = "ablate-coalesce"; run = ablate_coalesce };
    { name = "ablate-piv"; run = ablate_piv };
    { name = "ablate-sync"; run = ablate_sync };
    { name = "compare"; run = compare };
    { name = "noise"; run = noise };
    {
      name = "campaign";
      run =
        (fun ~quick ~domains ->
          campaign ~trials:(if quick then 25 else 60) ~domains);
    };
    { name = "isolation"; run = isolation };
    { name = "scale"; run = scale };
    { name = "kernels"; run = kernels };
  ]

let find name = List.find (fun r -> String.equal r.name name) all

let print r =
  List.iter
    (function
      | Title s -> Printf.printf "\n=== %s ===\n\n" s
      | Table t -> Covirt_sim.Table.print_auto t
      | Text s -> print_string s)
    r.blocks
