(* OS-noise profiling (the Fig. 3 experiment, interactively): run the
   Selfish Detour probe under each protection configuration and print
   the detour histograms side by side.

   Run with: dune exec examples/noise_profile.exe *)

let () =
  Format.printf
    "Selfish-Detour noise profiles per Covirt configuration (1 core,@.\
     2 simulated seconds, 10 Hz LWK tick).  Counts are identical@.\
     across configurations — virtualization does not add noise events,@.\
     it only stretches interrupt delivery slightly:@.@.";
  let rows = Covirt_harness.Fig3.run () in
  Covirt_sim.Table.print (Covirt_harness.Fig3.table rows);
  print_string (Covirt_harness.Fig3.histograms rows)
