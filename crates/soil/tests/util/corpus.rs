//! Every program the interpreter tests cover: the catalog (all Tab. I use
//! cases and the anomaly detectors) plus whatever the benchmark ships
//! under `crates/benchmark/programs/`.

/// `(label, source)` pairs: catalog programs are labelled by machine,
/// benchmark programs by file name.
pub fn corpus() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = farm_almanac::programs::USE_CASES
        .iter()
        .map(|u| (u.machine.to_string(), u.source.to_string()))
        .chain(
            farm_almanac::programs::ANOMALY_PROGRAMS
                .iter()
                .map(|(m, s)| (m.to_string(), s.to_string())),
        )
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmark/programs");
    let mut shipped: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "alm"))
        .collect();
    shipped.sort();
    assert!(!shipped.is_empty(), "no benchmark programs under {dir}");
    for path in shipped {
        let source = std::fs::read_to_string(&path).expect("readable program");
        let name = path.file_name().expect("a file").to_string_lossy();
        sources.push((name.into_owned(), source));
    }
    sources
}
