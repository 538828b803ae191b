let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let quantile xs ~p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs ~p:50.

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 64 0.; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let grown = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 grown 0 b.n;
    b.a <- grown
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

let fingerprint ~seed ~domains =
  let env k d = match Sys.getenv_opt k with Some v -> v | None -> d in
  Printf.sprintf
    {|{"nproc":%d,"ocaml":%S,"domains":%d,"ocamlrunparam":%S,"seed":%d,"commit":%S}|}
    (Domain.recommended_domain_count ()) Sys.ocaml_version domains (env "OCAMLRUNPARAM" "")
    seed (env "PERFBENCH_COMMIT" "unknown")
