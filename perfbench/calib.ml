(* The reference kernel: fixed amounts of the three kinds of work the
   simulator's host time goes to.
   - Allocation: a persistent map updated and queried, as the
     simulator's registries are.  It allocates about 134k words, all
     garbage by the end, on a minor heap emptied just before, so it
     neither collects nor promotes anything.
   - Floating point: sweeps of a 5-point stencil over a 128x128 grid
     held outside the OCaml heap, as the HPC kernels run.
   - Integer and branch work, as the cycle models do.
   None of it touches the program's state.  There is no random walk
   over a buffer larger than the L2 cache: its time depends on where
   the buffer's pages land, by up to 40 % from process to process on
   the reference host. *)

module Int_map = Map.Make (Int)

let allocation () =
  let x = ref 99 and m = ref Int_map.empty and acc = ref 0 in
  for i = 0 to 2_399 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.update (!x land 1023) (function None -> Some i | Some v -> Some (v + i)) !m;
    match Int_map.find_opt ((!x lsr 11) land 1023) !m with Some v -> acc := !acc + v | None -> ()
  done;
  !acc + Int_map.cardinal !m

let n = 128

let grid () = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout (n * n) (fun i -> float_of_int (i land 7))
let grids = lazy (grid (), grid ())

let stencil () =
  let open Bigarray.Array1 in
  let a, b = Lazy.force grids in
  for _ = 1 to 8 do
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        let k = (i * n) + j in
        unsafe_set b k
          ((0.25 *. (unsafe_get a (k - 1) +. unsafe_get a (k + 1) +. unsafe_get a (k - n) +. unsafe_get a (k + n)))
          -. (unsafe_get a k *. 1e-3))
      done
    done;
    for k = n to (n * (n - 1)) - 1 do
      unsafe_set a k (sqrt (Float.abs (unsafe_get b k)) +. 0.5)
    done
  done;
  int_of_float (unsafe_get a (n + 1))

let integer () =
  let x = ref 1 and acc = ref 0 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff;
    if !x land 1 = 0 then acc := !acc + (!x lsr 3) else acc := !acc lxor !x
  done;
  !acc

let kernel () = allocation () + stencil () + integer ()

let reference_s = 0.0022

let allocated = ref 0.

let minor_words () = !allocated

let sample () =
  ignore (Sys.opaque_identity (Lazy.force grids));
  Stats.median
    (Array.init 5 (fun _ ->
         Gc.minor ();
         let w0 = Gc.minor_words () in
         let t0 = Stats.now () in
         ignore (Sys.opaque_identity (kernel ()));
         let s = Stats.now () -. t0 in
         allocated := !allocated +. (Gc.minor_words () -. w0);
         s))
