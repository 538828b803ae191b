let on = ref false
let keep_limit = 200_000

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;
  op : int;
}

type frame = { f_id : int; f_name : string; f_t0 : float; mutable child : float }

type acc = { mutable self : float; samples : Stats.buf }

let kept : span list ref = ref []
let n_kept = ref 0
let next_id = ref 0
let cur_op = ref (-1)
let stack : frame list ref = ref []
let by_name : (string, acc) Hashtbl.t = Hashtbl.create 64

let start () =
  kept := [];
  n_kept := 0;
  next_id := 0;
  cur_op := -1;
  stack := [];
  Hashtbl.reset by_name;
  on := true

let stop () = on := false
let set_op op = cur_op := op

let note name self =
  let a =
    match Hashtbl.find_opt by_name name with
    | Some a -> a
    | None ->
        let a = { self = 0.; samples = Stats.buf () } in
        Hashtbl.add by_name name a;
        a
  in
  Stats.push a.samples self;
  a.self <- a.self +. self

let close fr =
  let t1 = Stats.now () in
  let dur = t1 -. fr.f_t0 in
  stack := List.tl !stack;
  let parent =
    match !stack with
    | p :: _ ->
        p.child <- p.child +. dur;
        p.f_id
    | [] -> -1
  in
  note fr.f_name (dur -. fr.child);
  if !n_kept < keep_limit then begin
    kept :=
      { id = fr.f_id; name = fr.f_name; t0 = fr.f_t0; t1; parent; op = !cur_op }
      :: !kept;
    incr n_kept
  end

let wrap name f =
  if not !on then f ()
  else begin
    let fr =
      { f_id = !next_id; f_name = name; f_t0 = Stats.now (); child = 0. }
    in
    incr next_id;
    stack := fr :: !stack;
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

type total = { calls : int; self_s : float; self_samples : float array }

let total_of a =
  let xs = Stats.contents a.samples in
  { calls = Array.length xs; self_s = a.self; self_samples = xs }

let totals () =
  Hashtbl.fold (fun name a acc -> (name, total_of a) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total name =
  match Hashtbl.find_opt by_name name with
  | Some a -> total_of a
  | None -> { calls = 0; self_s = 0.; self_samples = [||] }

let recorded () = !next_id - List.length !stack

let write_jsonl ~path =
  let oc = open_out path in
  let origin = match List.rev !kept with s :: _ -> s.t0 | [] -> 0. in
  let us t = (t -. origin) *. 1e6 in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"op\":%d}\n"
        s.id s.name (us s.t0) (us s.t1) s.parent s.op)
    (List.rev !kept);
  close_out oc;
  !n_kept
