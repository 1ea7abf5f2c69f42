module Stats = Phi_util.Stats

let minutes_per_day = 1440

let seasonal_baseline ?(smooth = 2) series =
  let period = minutes_per_day in
  if smooth < 0 then invalid_arg "Series.seasonal_baseline: negative smooth";
  let n = Array.length series in
  if n = 0 then [||]
  else begin
    (* Median across periods for each phase. *)
    let phase_median = Array.make period 0. in
    for phase = 0 to period - 1 do
      let samples = ref [] in
      let i = ref phase in
      while !i < n do
        samples := series.(!i) :: !samples;
        i := !i + period
      done;
      match !samples with
      | [] -> ()
      | s -> phase_median.(phase) <- Stats.median (Array.of_list s)
    done;
    (* Smooth over neighbouring phases (circularly). *)
    let smoothed =
      Array.init period (fun phase ->
          let acc = ref 0. in
          for d = -smooth to smooth do
            acc := !acc +. phase_median.(((phase + d) mod period + period) mod period)
          done;
          !acc /. float_of_int ((2 * smooth) + 1))
    in
    Array.init n (fun i -> smoothed.(i mod period))
  end

let robust_z ~actual ~baseline =
  let n = Array.length actual in
  if Array.length baseline <> n then invalid_arg "Series.robust_z: length mismatch";
  if n = 0 then [||]
  else begin
    let residuals = Array.init n (fun i -> actual.(i) -. baseline.(i)) in
    let abs_res = Array.map Float.abs residuals in
    let mad = Stats.median abs_res in
    let scale = 1.4826 *. mad in
    if scale <= 0. then Array.make n 0.
    else Array.map (fun r -> r /. scale) residuals
  end
