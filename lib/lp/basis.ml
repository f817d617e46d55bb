type cstat = At_lower | At_upper | Basic

type t = { rows : int array; stat : cstat array }

let compatible b ~rows ~cols =
  Array.length b.rows = rows
  && Array.length b.stat = cols
  && Array.for_all (fun j -> j >= 0 && j < cols) b.rows

let equal a b = a.rows = b.rows && a.stat = b.stat
