(** Counters and duration histograms; see the interface. *)

type counter = { mutable n : int }

(* log-spaced upper bounds in seconds (1–2–5 per decade, so bucket
   quantiles stay within a factor ~2.5 of the truth); a final overflow
   bucket catches the rest *)
let bounds =
  [|
    1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
    1e-2; 2e-2; 5e-2; 1e-1; 2e-1; 5e-1; 1.; 2.; 5.; 10.;
  |]

type histo = {
  mutable hcount : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  hits : int array;  (* length = Array.length bounds + 1 *)
}

type t = {
  cs : (string, counter) Hashtbl.t;
  hs : (string, histo) Hashtbl.t;
}

let create () = { cs = Hashtbl.create 16; hs = Hashtbl.create 8 }

let counter m name =
  match Hashtbl.find_opt m.cs name with
  | Some c -> c
  | None ->
      let c = { n = 0 } in
      Hashtbl.replace m.cs name c;
      c

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let value c = c.n

let count m name =
  match Hashtbl.find_opt m.cs name with Some c -> c.n | None -> 0

let histo m name =
  match Hashtbl.find_opt m.hs name with
  | Some h -> h
  | None ->
      let h =
        {
          hcount = 0;
          sum = 0.;
          vmin = infinity;
          vmax = neg_infinity;
          hits = Array.make (Array.length bounds + 1) 0;
        }
      in
      Hashtbl.replace m.hs name h;
      h

let observe m name v =
  let h = histo m name in
  h.hcount <- h.hcount + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let rec slot i =
    if i >= Array.length bounds then i else if v <= bounds.(i) then i else slot (i + 1)
  in
  let s = slot 0 in
  h.hits.(s) <- h.hits.(s) + 1

let counters m =
  Hashtbl.fold (fun name c acc -> (name, c.n) :: acc) m.cs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let absorb ~into src =
  List.iter (fun (name, v) -> add (counter into name) v) (counters src);
  (* histograms merge bucket-wise: counts and sums add, the extrema take
     the pointwise min/max — absorbing worker registries in worker order
     yields the same merged histogram as observing on one registry *)
  Hashtbl.iter
    (fun name (h : histo) ->
      if h.hcount > 0 then begin
        let g = histo into name in
        g.hcount <- g.hcount + h.hcount;
        g.sum <- g.sum +. h.sum;
        if h.vmin < g.vmin then g.vmin <- h.vmin;
        if h.vmax > g.vmax then g.vmax <- h.vmax;
        Array.iteri (fun i n -> g.hits.(i) <- g.hits.(i) + n) h.hits
      end)
    src.hs

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

let summarize h =
  let buckets = ref [] in
  for i = Array.length h.hits - 1 downto 0 do
    if h.hits.(i) > 0 then
      let bound = if i < Array.length bounds then bounds.(i) else infinity in
      buckets := (bound, h.hits.(i)) :: !buckets
  done;
  {
    count = h.hcount;
    sum = h.sum;
    min = (if h.hcount = 0 then 0. else h.vmin);
    max = (if h.hcount = 0 then 0. else h.vmax);
    buckets = !buckets;
  }

let histograms m =
  Hashtbl.fold (fun name h acc -> (name, summarize h) :: acc) m.hs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quantile m name q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Metrics.quantile: q not in [0,1]";
  match Hashtbl.find_opt m.hs name with
  | None -> None
  | Some h when h.hcount = 0 -> None
  | Some h ->
      (* rank interpolation within the first bucket whose cumulative count
         covers q·n, clamped to the observed extrema (which are exact) *)
      let target = q *. float_of_int h.hcount in
      let nb = Array.length h.hits in
      let rec go i cum =
        if i >= nb then h.vmax
        else if h.hits.(i) > 0 && float_of_int (cum + h.hits.(i)) >= target
        then begin
          let hi = if i < Array.length bounds then bounds.(i) else h.vmax in
          let lo = if i = 0 then 0. else bounds.(i - 1) in
          let frac =
            (target -. float_of_int cum) /. float_of_int h.hits.(i)
          in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) (cum + h.hits.(i))
      in
      Some (Float.max h.vmin (Float.min h.vmax (go 0 0)))

let to_json m =
  let counters_json =
    Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) (counters m))
  in
  let histo_json (name, s) =
    ( name,
      Json.Obj
        [
          ("count", Json.Int s.count);
          ("sum_s", Json.Float s.sum);
          ("min_s", Json.Float s.min);
          ("max_s", Json.Float s.max);
          ( "buckets",
            Json.List
              (List.map
                 (fun (bound, hits) ->
                   Json.Obj
                     [
                       ( "le_s",
                         if bound = infinity then Json.String "inf"
                         else Json.Float bound );
                       ("hits", Json.Int hits);
                     ])
                 s.buckets) );
        ] )
  in
  Json.Obj
    [
      ("counters", counters_json);
      ("histograms", Json.Obj (List.map histo_json (histograms m)));
    ]
