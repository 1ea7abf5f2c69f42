module Dist = Phi_util.Dist

type cell = { metro : string; isp : string; service : string }

type scope = { metro : string option; isp : string option; service : string option }

let scope_matches (scope : scope) (cell : cell) =
  let ok field value = match field with None -> true | Some v -> String.equal v value in
  ok scope.metro cell.metro && ok scope.isp cell.isp && ok scope.service cell.service

let pp_scope ppf s =
  let part name = function None -> name ^ "=*" | Some v -> name ^ "=" ^ v in
  Format.fprintf ppf "%s %s %s" (part "metro" s.metro) (part "isp" s.isp)
    (part "service" s.service)

type outage = { start_min : int; duration_min : int; scope : scope; severity : float }

type config = {
  metros : string list;
  isps : string list;
  services : string list;
  base_rate_per_min : float;
  days : int;
}

let default_config =
  {
    metros = [ "seattle"; "london"; "mumbai"; "sydney"; "saopaulo" ];
    isps = [ "as7922"; "as3320"; "as9829"; "as4804" ];
    services = [ "voip"; "storage"; "video" ];
    base_rate_per_min = 6000.;
    days = 3;
  }

let minutes_per_day = 1440

(* Deterministic cell weight so the traffic mix does not depend on the
   noise seed: a mild geometric skew over each dimension's position. *)
let cell_weight ~metro_idx ~isp_idx ~service_idx =
  (0.6 ** float_of_int metro_idx)
  *. (0.7 ** float_of_int isp_idx)
  *. (0.8 ** float_of_int service_idx)

let diurnal minute_of_day =
  (* Peak in the "evening" of each cell's day; amplitude 60 % around 1. *)
  let phase = 2. *. Float.pi *. float_of_int minute_of_day /. float_of_int minutes_per_day in
  1. +. (0.6 *. sin (phase -. (Float.pi /. 2.)))

let outage_factor outages cell minute =
  List.fold_left
    (fun acc o ->
      if
        minute >= o.start_min
        && minute < o.start_min + o.duration_min
        && scope_matches o.scope cell
      then acc *. (1. -. o.severity)
      else acc)
    1. outages

let generate rng config ~outages =
  if config.days < 1 then invalid_arg "Request_stream.generate: days must be >= 1";
  List.iter
    (fun o ->
      if o.severity <= 0. || o.severity > 1. then
        invalid_arg "Request_stream.generate: outage severity out of (0, 1]")
    outages;
  let total_minutes = config.days * minutes_per_day in
  let indexed l = List.mapi (fun i x -> (i, x)) l in
  let cells =
    List.concat_map
      (fun (mi, metro) ->
        List.concat_map
          (fun (ii, isp) ->
            List.map
              (fun (si, service) ->
                ( ({ metro; isp; service } : cell),
                  cell_weight ~metro_idx:mi ~isp_idx:ii ~service_idx:si ))
              (indexed config.services))
          (indexed config.isps))
      (indexed config.metros)
  in
  let weight_sum = List.fold_left (fun acc (_, w) -> acc +. w) 0. cells in
  List.map
    (fun (cell, weight) ->
      let mean_rate = config.base_rate_per_min *. weight /. weight_sum in
      let series =
        Array.init total_minutes (fun minute ->
            let lambda =
              mean_rate
              *. diurnal (minute mod minutes_per_day)
              *. outage_factor outages cell minute
            in
            float_of_int (Dist.poisson rng ~lambda))
      in
      (cell, series))
    cells

let total_series cells =
  match cells with
  | [] -> [||]
  | (_, first) :: _ ->
    let acc = Array.make (Array.length first) 0. in
    List.iter (fun (_, series) -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) series) cells;
    acc

let sum_where cells scope =
  total_series (List.filter (fun (cell, _) -> scope_matches scope cell) cells)
