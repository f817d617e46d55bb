let ( let* ) = Result.bind
let sprintf = Printf.sprintf

type app =
  | Speech
  | Eeg1
  | Eeg14
  | Eeg22
  | Synthetic of { seed : int; n_ops : int option }

let apps = "speech|eeg1|eeg14|eeg22|synthetic:SEED[:NOPS]"

let app_of_string s =
  match (s, String.split_on_char ':' s) with
  | "speech", _ -> Ok Speech
  | "eeg1", _ -> Ok Eeg1
  | "eeg14", _ -> Ok Eeg14
  | "eeg22", _ -> Ok Eeg22
  | _, "synthetic" :: fields -> (
      match List.map int_of_string_opt fields with
      | [ Some seed ] -> Ok (Synthetic { seed; n_ops = None })
      | [ Some seed; Some n ] -> Ok (Synthetic { seed; n_ops = Some n })
      | _ -> Error (sprintf "bad synthetic token %S (synthetic:SEED[:NOPS])" s))
  | _ -> Error (sprintf "unknown app %S (%s)" s apps)

let app_to_string = function
  | Speech -> "speech"
  | Eeg1 -> "eeg1"
  | Eeg14 -> "eeg14"
  | Eeg22 -> "eeg22"
  | Synthetic { seed; n_ops = None } -> sprintf "synthetic:%d" seed
  | Synthetic { seed; n_ops = Some n } -> sprintf "synthetic:%d:%d" seed n

let describe = function
  | Speech -> "speech detection (MFCC pipeline)"
  | Eeg1 -> "EEG seizure detection, single channel"
  | Eeg14 -> "EEG seizure detection, 14 channels"
  | Eeg22 -> "EEG seizure detection, 22 channels"
  | Synthetic _ as a -> "random spec " ^ app_to_string a

type topology = { plats : Profiler.Platform.t list; parents : int array option }

let rec all = function
  | [] -> Ok []
  | Ok x :: rest -> Result.map (List.cons x) (all rest)
  | Error m :: _ -> Error m

let topology_of_string ~flag s =
  let toks =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let n = List.length toks in
  let platform name =
    match Profiler.Platform.find (String.trim name) with
    | p -> Ok p
    | exception Not_found -> Error (sprintf "%s: unknown platform %S" flag name)
  in
  (* each entry's platform and parent index: the next entry unless
     [>K] names a later one or the server ([n]) *)
  let entry i tok =
    match String.index_opt tok '>' with
    | None -> Result.map (fun p -> (p, i + 1)) (platform tok)
    | Some j -> (
        let k = String.sub tok (j + 1) (String.length tok - j - 1) in
        match int_of_string_opt (String.trim k) with
        | Some k when k > i && k <= n ->
            Result.map (fun p -> (p, k)) (platform (String.sub tok 0 j))
        | Some k ->
            Error
              (sprintf
                 "%s: %S: parent %d not in (%d, %d] (parents must sit later \
                  in the list; %d is the server)"
                 flag tok k i n n)
        | None -> Error (sprintf "%s: bad parent index in %S" flag tok))
  in
  if toks = [] then Error (flag ^ ": empty platform chain")
  else
    let* entries = all (List.mapi entry toks) in
    Ok
      {
        plats = List.map fst entries;
        parents =
          (if String.contains s '>' then
             Some (Array.of_list (List.map snd entries @ [ -1 ]))
           else None);
      }

type t = {
  app : app;
  topology : topology option;
  request : Wishbone.Service.request;
  cpu : float option;
  net : float option;
}

(* budgets may be unbounded ([inf]) but not NaN or negative *)
let overrides toks =
  let budget tok v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> Ok (Some f)
    | _ -> Error (sprintf "bad override %S (budgets are numbers >= 0)" tok)
  in
  List.fold_left
    (fun acc tok ->
      let* cpu, net = acc in
      match String.split_on_char '=' tok with
      | [ "cpu"; v ] -> Result.map (fun cpu -> (cpu, net)) (budget tok v)
      | [ "net"; v ] -> Result.map (fun net -> (cpu, net)) (budget tok v)
      | _ -> Error (sprintf "unknown override %S" tok))
    (Ok (None, None)) toks

let parse text =
  let tokens =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> Ok None
  | tok :: _ when tok.[0] = '#' -> Ok None
  | app :: chain :: rest ->
      let* request, rest =
        match rest with
        | "search" :: o -> Ok (Wishbone.Service.Search, o)
        | "rate" :: x :: o -> (
            match float_of_string_opt x with
            | Some r when r > 0. && Float.is_finite r ->
                Ok (Wishbone.Service.Rate r, o)
            | _ -> Error (sprintf "bad rate %S (rates are finite and > 0)" x))
        | _ -> Error "expected `rate X' or `search'"
      in
      let* app = app_of_string app in
      let* topology =
        match app with
        | Synthetic _ when chain = "-" -> Ok None
        | Synthetic _ ->
            Error
              "synthetic specs carry their own budgets; use `-' for the chain"
        | _ -> Result.map Option.some (topology_of_string ~flag:"chain" chain)
      in
      let* cpu, net = overrides rest in
      Ok (Some { app; topology; request; cpu; net })
  | _ -> Error "expected `APP CHAIN REQUEST'"

type cache = { duration : float; traces : (app, Profiler.Profile.raw) Hashtbl.t }

let cache ~duration = { duration; traces = Hashtbl.create 4 }

let profile { duration; traces } app =
  match Hashtbl.find_opt traces app with
  | Some raw -> Ok raw
  | None ->
      let* raw =
        match app with
        | Speech -> Ok (Speech.profile ~duration (Speech.build ()))
        | Eeg1 -> Ok (Eeg.profile ~duration (Eeg.single_channel ()))
        | Eeg14 -> Ok (Eeg.profile ~duration (Eeg.build ~n_channels:14 ()))
        | Eeg22 -> Ok (Eeg.profile ~duration (Eeg.build ~n_channels:22 ()))
        | Synthetic _ -> Error "a synthetic spec has no profiled trace"
      in
      Hashtbl.add traces app raw;
      Ok raw

let build c ~mode q =
  let budgets (spec : Wishbone.Spec.t) =
    {
      spec with
      cpu_budget = Option.value q.cpu ~default:spec.cpu_budget;
      net_budget = Option.value q.net ~default:spec.net_budget;
    }
  in
  let* placement =
    match (q.app, q.topology) with
    | Synthetic { seed; n_ops }, _ -> (
        match Synthetic.random_spec ~seed ?n_ops ~mode () with
        | spec -> Ok (Wishbone.Placement.of_spec (budgets spec))
        | exception Invalid_argument m ->
            Error (sprintf "%s: %s" (app_to_string q.app) m))
    | app, Some { plats = node_platform :: _ as plats; parents } -> (
        let* raw = profile c app in
        let* spec = Wishbone.Spec.of_profile ~mode ~node_platform raw in
        match
          Wishbone.Placement.of_platforms ?parents (budgets spec) raw plats
        with
        | pl -> Ok pl
        | exception Invalid_argument m -> Error m)
    | app, _ -> Error (app_to_string app ^ " needs a platform topology")
  in
  Ok { Wishbone.Service.placement; request = q.request }
