open Covirt_workloads

let run ?(quick = false) ?(seed = 42) () =
  Layout_sweep.run (fun ~layout config ->
      Experiments.with_setup ~config ~layout ~seed (fun setup ->
          let ctxs = Experiments.contexts setup in
          let real_dim = if quick then 10 else 16 in
          let iterations = if quick then 10 else 60 in
          match Minife.run ctxs ~real_dim ~iterations () with
          | Ok r ->
              assert (r.Minife.final_residual < 1.0);
              r.Minife.solve_gflops
          | Error e -> failwith ("fig6 minife: " ^ e)))
