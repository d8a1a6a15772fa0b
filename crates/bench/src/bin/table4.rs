//! **Table 4** — modeling accuracy comparison and ablation study:
//! bit-wise models (tree/MLP ± path sampling, transformer, customized GNN,
//! RTL-Timer ensemble), signal-wise models (± bit-wise detail, LTR), and
//! overall WNS/TNS versus the reimplemented SOTA baselines.

use rtl_timer::baselines::{AstStyle, GnnBaseline, MasterRtlStyle, SignalDirect, SnsStyle};
use rtl_timer::bitwise::{BitModelKind, BitwiseCorpus, BitwiseModel, TransformerAblation};
use rtl_timer::dataset::TokenRow;
use rtl_timer::metrics::{covr, mape, mean, pearson, r_squared};
use rtl_timer::pipeline::{cross_validate_with, DesignData};
use rtlt_bench::{f2, folds, json::Json, pct, Bench, Table};

fn finite(pred: &[f64], label: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut p = Vec::new();
    let mut l = Vec::new();
    for (&a, &b) in pred.iter().zip(label) {
        if a.is_finite() && b.is_finite() {
            p.push(a);
            l.push(b);
        }
    }
    (p, l)
}

/// Per-design metric accumulator.
#[derive(Default)]
struct Acc {
    r: Vec<f64>,
    mape: Vec<f64>,
    covr: Vec<f64>,
}

impl Acc {
    fn push(&mut self, pred: &[f64], label: &[f64]) {
        let (p, l) = finite(pred, label);
        if p.len() < 4 {
            return;
        }
        self.r.push(pearson(&p, &l));
        self.mape.push(mape(&p, &l));
        self.covr.push(covr(&p, &l));
    }

    fn row(&self, name: &str) -> Vec<String> {
        vec![
            name.to_owned(),
            f2(mean(&self.r)),
            pct(mean(&self.mape)),
            pct(mean(&self.covr)),
        ]
    }
}

/// One bit-wise ablation: a model over path rows' features, or the
/// Transformer over their token sequences.
enum Ablation {
    Rows(BitModelKind),
    Tokens,
}

fn main() {
    let bench = Bench::from_env();
    let set = bench.prepare_suite();
    let cfg = bench.cfg.clone();
    let k = folds();
    eprintln!("[table4] {k}-fold cross-validation (RTL-Timer full stack) ...");
    let preds = cross_validate_with(&set, k, &cfg, &bench.store);

    // ---- Bit-wise section (CV ablations on the SOG representation). ----
    eprintln!("[table4] bit-wise ablations ...");
    let mut abl: Vec<(&str, Ablation)> = vec![
        (
            "Tree-based w/o sample",
            Ablation::Rows(BitModelKind::TreeCritOnly),
        ),
        ("MLP", Ablation::Rows(BitModelKind::MlpMax)),
        ("MLP w/o sample", Ablation::Rows(BitModelKind::MlpCritOnly)),
        ("Transformer", Ablation::Tokens),
    ];
    if rtlt_bench::fast() {
        abl.truncate(1);
    }
    // The Transformer's token sequences, once per design (rows carry none).
    let tokens: Vec<Vec<TokenRow>> = if abl.iter().any(|(_, a)| matches!(a, Ablation::Tokens)) {
        set.designs().iter().map(|d| d.token_rows()).collect()
    } else {
        Vec::new()
    };
    let tokens_of = |name: &str| -> &[TokenRow] {
        let i = set.designs().iter().position(|d| &*d.name == name);
        &tokens[i.expect("design of the set")]
    };
    let mut abl_acc: Vec<Acc> = abl.iter().map(|_| Acc::default()).collect();
    let mut gnn_acc = Acc::default();
    let fold_names = set.folds(k);
    for fold in &fold_names {
        let names: Vec<&str> = fold.iter().map(|s| &**s).collect();
        let (train, test) = set.split(&names);
        if test.is_empty() {
            continue;
        }
        for (ai, (_, ablation)) in abl.iter().enumerate() {
            let corpus = BitwiseCorpus {
                designs: train
                    .iter()
                    .map(|d| (&d.variant_data[0], &d.labels_at[..]))
                    .collect(),
            };
            match ablation {
                Ablation::Rows(kind) => {
                    let model = BitwiseModel::fit(*kind, &corpus, cfg.seed);
                    for d in &test {
                        let p = model.predict_endpoints(&d.variant_data[0]);
                        abl_acc[ai].push(&p, &d.labels_at);
                    }
                }
                Ablation::Tokens => {
                    let train_tokens: Vec<&[TokenRow]> =
                        train.iter().map(|d| tokens_of(&d.name)).collect();
                    let model = TransformerAblation::fit(&corpus, &train_tokens, cfg.seed);
                    for d in &test {
                        let p = model.predict_endpoints(&d.variant_data[0], tokens_of(&d.name));
                        abl_acc[ai].push(&p, &d.labels_at);
                    }
                }
            }
        }
        // Customized GNN baseline.
        let gnn = GnnBaseline::fit(&train, cfg.seed);
        for d in &test {
            let (p, l) = gnn.predict(d);
            gnn_acc.push(&p, &l);
        }
    }
    let mut bit_rtl = Acc::default();
    for p in &preds {
        bit_rtl.push(&p.bit_pred, &p.bit_label);
    }

    println!("\nTable 4 — bit-wise endpoint modeling (avg over CV test designs)\n");
    let mut t = Table::new(&["method", "R", "MAPE %", "COVR %"]);
    for (ai, (name, _)) in abl.iter().enumerate() {
        t.row(abl_acc[ai].row(name));
    }
    t.row(gnn_acc.row("Customized GNN"));
    t.row(bit_rtl.row("RTL-Timer (tree + sample + ensemble)"));
    t.print();
    println!("paper: tree w/o sample 0.80/26/59, MLP 0.71/35/56, MLP w/o 0.65/38/54,");
    println!("       transformer 0.73/35/57, GNN 0.25/53/46, RTL-Timer 0.88/12/66\n");

    // ---- Signal-wise section. ----
    eprintln!("[table4] signal-wise ablations ...");
    let mut sig_direct_reg = Acc::default();
    let mut sig_direct_rank_covr: Vec<f64> = Vec::new();
    for fold in &fold_names {
        let names: Vec<&str> = fold.iter().map(|s| &**s).collect();
        let (train, test) = set.split(&names);
        if test.is_empty() {
            continue;
        }
        let direct = SignalDirect::fit(&train, cfg.seed);
        for d in &test {
            let labels = d.signal_labels();
            let (reg, rank) = direct.predict(d);
            sig_direct_reg.push(&reg, &labels);
            let (rs, ls) = finite(&rank, &labels);
            if rs.len() >= 4 {
                sig_direct_rank_covr.push(covr(&rs, &ls));
            }
        }
    }
    let mut sig_reg = Acc::default();
    let mut covr_wo_ltr = Vec::new();
    let mut covr_ltr = Vec::new();
    for p in &preds {
        sig_reg.push(&p.signal_pred, &p.signal_label);
        covr_wo_ltr.push(p.signal_covr_regression());
        covr_ltr.push(p.signal_covr_ranking());
    }

    println!("\nTable 4 — signal-wise endpoint modeling\n");
    let mut t = Table::new(&["method", "R", "MAPE %", "COVR %"]);
    t.row(sig_direct_reg.row("Regression w/o bit-wise"));
    t.row(vec![
        "Ranking w/o bit-wise".into(),
        "/".into(),
        "/".into(),
        pct(mean(&sig_direct_rank_covr)),
    ]);
    let mut r = sig_reg.row("RTL-Timer (regression)");
    r[3] = pct(mean(&covr_wo_ltr));
    t.row(r);
    t.row(vec![
        "RTL-Timer (ranking, LTR)".into(),
        "/".into(),
        "/".into(),
        pct(mean(&covr_ltr)),
    ]);
    t.print();
    println!("paper: regr w/o bit-wise 0.56/28/56, rank w/o bit-wise COVR 39,");
    println!("       RTL-Timer regression 0.89/15/71, RTL-Timer ranking COVR 80\n");

    // ---- Overall WNS/TNS section. ----
    eprintln!("[table4] overall WNS/TNS baselines ...");
    let mut rows_wns: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut rows_tns: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut sns_p = Vec::new();
    let mut master_w = Vec::new();
    let mut master_t = Vec::new();
    let mut ast_t = Vec::new();
    let mut ast_w = Vec::new();
    let mut label_w = Vec::new();
    let mut label_t = Vec::new();
    let mut ordered_designs: Vec<&DesignData> = Vec::new();
    for fold in &fold_names {
        let names: Vec<&str> = fold.iter().map(|s| &**s).collect();
        let (train, test) = set.split(&names);
        if test.is_empty() {
            continue;
        }
        let sns = SnsStyle::fit(&train, cfg.seed);
        let master = MasterRtlStyle::fit(&train, cfg.seed);
        let ast = AstStyle::fit(&train, cfg.seed);
        for d in &test {
            sns_p.push(sns.predict_wns(d));
            let (w, t2) = master.predict(d);
            master_w.push(w);
            master_t.push(t2);
            let (aw, at) = ast.predict(d);
            ast_w.push(aw);
            ast_t.push(at);
            label_w.push(d.wns);
            label_t.push(d.tns);
            ordered_designs.push(d);
        }
    }
    // RTL-Timer WNS/TNS aligned with the same design order.
    let mut rtl_w = Vec::new();
    let mut rtl_t = Vec::new();
    for d in &ordered_designs {
        let p = preds
            .iter()
            .find(|p| p.design == d.name)
            .expect("CV prediction");
        rtl_w.push(p.wns_pred);
        rtl_t.push(p.tns_pred);
    }
    rows_wns.push(("SNS-style", sns_p));
    rows_wns.push(("MasterRTL-style", master_w));
    rows_wns.push(("ICCAD'22-style", ast_w));
    rows_wns.push(("RTL-Timer", rtl_w));
    rows_tns.push(("ICCAD'22-style", ast_t));
    rows_tns.push(("MasterRTL-style", master_t));
    rows_tns.push(("RTL-Timer", rtl_t));

    println!(
        "\nTable 4 — overall design timing (cross-design, {} designs)\n",
        label_w.len()
    );
    let mut t = Table::new(&["target", "method", "R", "R2", "MAPE %"]);
    for (name, p) in &rows_wns {
        t.row(vec![
            "WNS".into(),
            (*name).to_owned(),
            f2(pearson(p, &label_w)),
            f2(r_squared(p, &label_w)),
            pct(mape(p, &label_w)),
        ]);
    }
    for (name, p) in &rows_tns {
        t.row(vec![
            "TNS".into(),
            (*name).to_owned(),
            f2(pearson(p, &label_t)),
            f2(r_squared(p, &label_t)),
            pct(mape(p, &label_t)),
        ]);
    }
    t.print();
    println!("paper: WNS — SNS 0.73/0.58/33, MasterRTL 0.89/0.74/15, RTL-Timer 0.91/0.86/12");
    println!("       TNS — ICCAD'22 0.65/0.32/42, MasterRTL 0.96/0.94/34, RTL-Timer 0.98/0.97/18");

    let rtl_wns = &rows_wns.last().expect("RTL-Timer row").1;
    let rtl_tns = &rows_tns.last().expect("RTL-Timer row").1;
    bench.write_report(
        "table4",
        vec![
            ("folds", Json::UInt(k as u64)),
            ("bit_r_avg", Json::Num(mean(&bit_rtl.r))),
            ("bit_mape_pct_avg", Json::Num(mean(&bit_rtl.mape))),
            ("bit_covr_pct_avg", Json::Num(mean(&bit_rtl.covr))),
            ("signal_r_avg", Json::Num(mean(&sig_reg.r))),
            ("signal_covr_ltr_pct_avg", Json::Num(mean(&covr_ltr))),
            ("wns_r", Json::Num(pearson(rtl_wns, &label_w))),
            ("tns_r", Json::Num(pearson(rtl_tns, &label_t))),
        ],
    );
}
