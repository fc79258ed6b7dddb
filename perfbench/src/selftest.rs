//! `perfbench selftest`: the correctness checks must reject bad outputs.

use crate::protocol::{batch_pool, draw_layers, Reference, Workload, REFERENCE};
use crate::serve;
use crate::util::nproc;
use crate::verify::{check_design, check_quality, Design};

fn expect_err<T>(what: &str, r: Result<T, String>) -> Result<(), String> {
    match r {
        Ok(_) => Err(format!("{what} was not detected")),
        Err(e) => {
            println!("selftest: {what} -> rejected ({e})");
            Ok(())
        }
    }
}

pub fn run() -> Result<bool, String> {
    let reference = Reference::load()?;
    if !reference.intact {
        return Err(format!("{REFERENCE}: checksum mismatch"));
    }

    // A real winner passes; corrupted references and tampered designs fail.
    let w = Workload::FixedDelayScreen;
    let (objective, mode) = (w.objective(), w.mode());
    let layer = batch_pool().swap_remove(2);
    let point = w
        .optimizer(nproc())
        .optimize_layer(&layer, objective, &mode)
        .map_err(|e| e.to_string())?;
    let design = Design::of(&point);
    let score = check_design(&layer, objective, &mode, &design)?;
    let ratio = check_quality(&reference, w.name(), &layer.name, score)?;
    if ratio != 1.0 {
        return Err(format!("{}: quality ratio {ratio}, not 1", layer.name));
    }

    // Corrupt the score in the file text, either way, leaving the checksum
    // line alone: the checksum must catch it.
    let text = std::fs::read_to_string(REFERENCE).map_err(|e| e.to_string())?;
    let line = format!("{} {} {score:?} ", w.name(), layer.name);
    if !text.contains(&line) {
        return Err(format!("reference line for {} not found", layer.name));
    }
    for factor in [0.5, 2.0] {
        let edited = text.replace(
            &line,
            &format!("{} {} {:?} ", w.name(), layer.name, score * factor),
        );
        expect_err(
            &format!("reference score x{factor} in the file"),
            check_quality(&Reference::parse(&edited), w.name(), &layer.name, score),
        )?;
    }
    // Corrupt it and re-seal the checksum: the check passes, and the
    // winner's quality ratio reads 2, which `quality_ratio` reports.
    let mut corrupted = reference.clone();
    corrupted.corrupt(w.name(), &layer.name, 0.5);
    let resealed = Reference::parse(&corrupted.render());
    assert!(
        resealed.intact,
        "a re-rendered reference carries its checksum"
    );
    let ratio = check_quality(&resealed, w.name(), &layer.name, score)?;
    if (ratio - 2.0).abs() > 1e-9 {
        return Err(format!(
            "reference score x0.5 with a valid checksum gave quality ratio {ratio}, not 2"
        ));
    }
    println!("selftest: reference score x0.5 with a valid checksum -> quality ratio {ratio}");

    let mut tampered = design.clone();
    tampered.cycles *= 0.5;
    expect_err(
        "tampered cycles",
        check_design(&layer, objective, &mode, &tampered),
    )?;
    let mut tampered = design.clone();
    tampered.mapping.spatial_factors.swap(0, 1);
    expect_err(
        "tampered mapping",
        check_design(&layer, objective, &mode, &tampered),
    )?;

    serve::selftest_served(&reference)?;
    println!("selftest: served fill, hit and four tampered copies checked");

    // Inputs are a function of the seed.
    for w in [Workload::CodesignEnergy, Workload::FixedDelayScreen] {
        let a = draw_layers(w, 7, &reference);
        if a != draw_layers(w, 7, &reference) || a == draw_layers(w, 8, &reference) {
            return Err(format!(
                "{}: draws are not a function of the seed",
                w.name()
            ));
        }
    }
    let names = |seed| -> Vec<String> {
        serve::plan(seed, 2.0)
            .1
            .into_iter()
            .map(|p| p.layer.name)
            .collect()
    };
    if names(7) != names(7) || names(7) == names(8) {
        return Err("serve plans are not a function of the seed".into());
    }
    println!("selftest: ok");
    Ok(true)
}
