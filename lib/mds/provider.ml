(* Information providers (the GRIS role).

   Attaches to a GRAM resource and republishes its local state into the
   directory on a fixed period, driven by the simulation engine — the
   moral equivalent of the MDS information provider scripts polling the
   scheduler. *)

type t = {
  directory : Directory.t;
  resource : Grid_gram.Resource.t;
  period : Grid_sim.Clock.time;
  mutable publications : int;
  mutable stopped : bool;
}

let status_of resource ~now =
  let lrm = Grid_gram.Resource.lrm resource in
  { Directory.free_cpus = Grid_lrm.Lrm.free_cpus lrm;
    running_jobs = Grid_lrm.Lrm.running_count lrm;
    pending_jobs = Grid_lrm.Lrm.pending_count lrm;
    published_at = now }

let attach ?(period = 30.0) ?(site = "default") ~directory resource =
  let lrm = Grid_gram.Resource.lrm resource in
  Directory.register directory
    { Directory.resource_name = Grid_gram.Resource.name resource;
      site;
      total_cpus = Grid_lrm.Lrm.capacity lrm;
      queues = Grid_lrm.Lrm.queue_names lrm };
  let engine = Grid_gram.Resource.engine resource in
  let provider = { directory; resource; period; publications = 0; stopped = false } in
  let rec publish () =
    if not provider.stopped then begin
      let now = Grid_sim.Engine.now engine in
      Directory.publish directory
        ~resource_name:(Grid_gram.Resource.name resource)
        (status_of resource ~now);
      provider.publications <- provider.publications + 1;
      Grid_sim.Engine.schedule_after engine period publish
    end
  in
  publish ();
  provider

let stop t = t.stopped <- true

let publish_now t =
  let engine = Grid_gram.Resource.engine t.resource in
  Directory.publish t.directory
    ~resource_name:(Grid_gram.Resource.name t.resource)
    (status_of t.resource ~now:(Grid_sim.Engine.now engine))

let publications t = t.publications
