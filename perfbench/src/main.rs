//! The benchmark's measuring process. `run.py` starts one per job so
//! every job pays a cold process, as a real launch does:
//!
//! ```text
//! perfbench job <workload> <seed> <traced 0|1>   one job, JSON on stdout
//! perfbench layers <workload>                    layer replay kernels
//! perfbench hostref                              host-speed reference
//! ```

mod inputs;
mod job;
mod json;
mod layers;
mod probe;

use inputs::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench job <workload> <seed> <0|1> | layers <workload> | hostref\n\
         workloads: halo32, coll64, scale4096"
    );
    std::process::exit(2)
}

fn workload(arg: Option<&String>) -> Workload {
    arg.and_then(|s| Workload::parse(s))
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let line = match args.first().map(String::as_str) {
        Some("job") if args.len() == 4 => {
            let seed = args[2].parse().unwrap_or_else(|_| usage());
            let traced = match args[3].as_str() {
                "0" => false,
                "1" => true,
                _ => usage(),
            };
            job::run_job(workload(args.get(1)), seed, traced)
        }
        Some("layers") if args.len() == 2 => layers::run_layers(workload(args.get(1))),
        Some("hostref") if args.len() == 1 => {
            let mut o = json::Obj::new();
            o.num("host.ref_ns", layers::host_ref_ns());
            o.finish()
        }
        _ => usage(),
    };
    println!("{line}");
}
