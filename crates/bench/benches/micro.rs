//! Criterion micro-benchmarks over the pipeline stages: parsing,
//! elaboration, bit-blasting, variant conversion, pseudo-STA, path dataset
//! construction, synthesis, and model training/inference.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rtl_timer::bitwise::{BitModelKind, BitwiseCorpus, BitwiseModel};
use rtl_timer::dataset::{build_all_variant_data, FeaturizeScratch};
use rtlt_bog::{blast, BogVariant, ConeExtractor};
use rtlt_liberty::Library;
use rtlt_ml::{
    Binner, FeatureMatrix, Gbdt, GbdtParams, SquaredObjective, Tree, TreeParams, TreeScratch,
};
use rtlt_sta::{LevelScratch, Sta, StaConfig};
use rtlt_synth::{synthesize, SynthOptions};

fn src() -> String {
    rtlt_designgen::generate("b17").expect("catalog design")
}

fn bench_frontend(c: &mut Criterion) {
    let source = src();
    c.bench_function("parse_b17", |b| {
        b.iter(|| rtlt_verilog::parse(&source).expect("parses"))
    });
    c.bench_function("compile_b17", |b| {
        b.iter(|| rtlt_verilog::compile(&source, "b17").expect("compiles"))
    });
}

fn bench_bog(c: &mut Criterion) {
    let netlist = rtlt_verilog::compile(&src(), "b17").expect("compiles");
    c.bench_function("blast_b17", |b| b.iter(|| blast(&netlist)));
    let sog = blast(&netlist);
    c.bench_function("to_aig_b17", |b| b.iter(|| sog.to_variant(BogVariant::Aig)));

    // The graph-construction kernels an edit runs across the whole design,
    // on the 48-lane hierarchical SoC (~141k SOG nodes, 145 signals).
    let soc = rtlt_designgen::hier::soc("hier_soc", 48, 32, 3);
    let sog = blast(&rtlt_verilog::compile(&soc, "hier_soc").expect("compiles"));
    let mut group = c.benchmark_group("hier48");
    group.sample_size(10);
    group.bench_function("to_variant_aig_aimg_xag", |b| {
        b.iter(|| [BogVariant::Aig, BogVariant::Aimg, BogVariant::Xag].map(|v| sog.to_variant(v)))
    });
    group.bench_function("extract_every_cone", |b| {
        b.iter(|| {
            let mut extractor = ConeExtractor::new(&sog);
            (0..sog.signals().len())
                .map(|sig| extractor.extract(sig))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("topo_order", |b| b.iter(|| sog.topo_order()));
    group.finish();
}

fn bench_sta(c: &mut Criterion) {
    let netlist = rtlt_verilog::compile(&src(), "b17").expect("compiles");
    let sog = blast(&netlist);
    let lib = Library::pseudo_bog();
    c.bench_function("pseudo_sta_b17", |b| {
        b.iter(|| Sta::run(&sog, &lib, StaConfig::default()))
    });
}

fn bench_cone_kernel(c: &mut Criterion) {
    let netlist = rtlt_verilog::compile(&src(), "b17").expect("compiles");
    let sog = blast(&netlist);
    let lib = Library::pseudo_bog();
    let mut scratch = LevelScratch::new();
    c.bench_function("levelized_sta_b17", |b| {
        b.iter(|| Sta::run_levelized(&sog, &lib, StaConfig::default(), &mut scratch))
    });
    // The path dataset as the pipeline builds it: all four variants through
    // the sharded featurize, cold (a fresh scratch per iteration).
    let mut group = c.benchmark_group("cone");
    group.sample_size(10);
    group.bench_function("dataset_b17", |b| {
        b.iter_batched(
            FeaturizeScratch::new,
            |mut scratch| build_all_variant_data(&sog, &lib, 1.0, 7, &mut scratch),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_synth(c: &mut Criterion) {
    let netlist =
        rtlt_verilog::compile(&rtlt_designgen::generate("b20").unwrap(), "b20").expect("compiles");
    let sog = blast(&netlist);
    let lib = Library::nangate45_like();
    let mut group = c.benchmark_group("synth");
    group.sample_size(10);
    group.bench_function("synthesize_b20", |b| {
        b.iter(|| synthesize(&sog, &lib, &SynthOptions::default()))
    });
    group.finish();
}

fn bench_model(c: &mut Criterion) {
    let netlist = rtlt_verilog::compile(&src(), "b17").expect("compiles");
    let sog = blast(&netlist);
    let pseudo = Library::pseudo_bog();
    let data =
        build_all_variant_data(&sog, &pseudo, 1.0, 7, &mut FeaturizeScratch::new()).swap_remove(0);
    let labels: Vec<f64> = data.endpoint_sta_at.iter().map(|a| a * 0.8).collect();
    let mut group = c.benchmark_group("model");
    group.sample_size(10);
    group.bench_function("gbdt_maxloss_fit_b17", |b| {
        b.iter_batched(
            || BitwiseCorpus {
                designs: vec![(&data, labels.as_slice())],
            },
            |corpus| BitwiseModel::fit(BitModelKind::TreeMax, &corpus, 1),
            BatchSize::SmallInput,
        )
    });
    let corpus = BitwiseCorpus {
        designs: vec![(&data, labels.as_slice())],
    };
    let model = BitwiseModel::fit(BitModelKind::TreeMax, &corpus, 1);
    group.bench_function("gbdt_predict_b17", |b| {
        b.iter(|| model.predict_endpoints(&data))
    });

    // Raw model-stack micro-kernels over the same path rows: the flat arena
    // batch inference kernel, and a single histogram tree grown with a
    // reused scratch histogram (the per-round unit of GBDT training).
    let nf = data.rows.first().map_or(1, |r| r.features.len());
    let mut fm = FeatureMatrix::new(nf);
    for r in &data.rows {
        fm.push_row(&r.features);
    }
    let y: Vec<f64> = data
        .rows
        .iter()
        .map(|r| data.endpoint_sta_at[r.endpoint])
        .collect();
    let gbdt = Gbdt::fit(
        &fm,
        &SquaredObjective { targets: y.clone() },
        &GbdtParams::default(),
    );
    group.bench_function("gbdt_predict_batch_b17", |b| {
        b.iter(|| gbdt.predict_all(&fm))
    });

    let binner = Binner::fit(&fm, 128);
    let codes = binner.codes(&fm);
    let grad: Vec<f64> = y.iter().map(|v| -v).collect();
    let hess = vec![1.0; y.len()];
    let all: Vec<usize> = (0..y.len()).collect();
    let mut scratch = TreeScratch::for_binner(&binner);
    group.bench_function("tree_fit_hist_b17", |b| {
        b.iter(|| {
            Tree::fit_with(
                &binner,
                &codes,
                &grad,
                &hess,
                &all,
                &TreeParams::default(),
                &mut scratch,
                1,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_frontend,
    bench_bog,
    bench_sta,
    bench_cone_kernel,
    bench_synth,
    bench_model
);
criterion_main!(benches);
