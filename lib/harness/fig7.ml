open Covirt_workloads

let run ?(quick = false) ?(seed = 42) () =
  Layout_sweep.run (fun ~layout config ->
      Experiments.with_setup ~config ~layout ~seed (fun setup ->
          let ctxs = Experiments.contexts setup in
          let real_dim = if quick then 12 else 20 in
          let iterations = if quick then 10 else 50 in
          match Hpcg.run ctxs ~real_dim ~iterations () with
          | Ok r ->
              assert (r.Hpcg.final_residual < 1.0);
              r.Hpcg.gflops
          | Error e -> failwith ("fig7 hpcg: " ^ e)))
