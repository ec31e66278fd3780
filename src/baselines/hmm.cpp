#include "baselines/hmm.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/rng.h"

namespace hdd::baselines {

void HmmConfig::validate() const {
  HDD_REQUIRE(states >= 1, "states must be >= 1");
  HDD_REQUIRE(baum_welch_iters >= 1, "baum_welch_iters must be >= 1");
  HDD_REQUIRE(tol >= 0.0, "tol must be non-negative");
  HDD_REQUIRE(min_variance > 0.0, "min_variance must be positive");
}

namespace {

double gaussian_pdf(double x, double mean, double var) {
  const double d = x - mean;
  return std::exp(-0.5 * d * d / var) /
         std::sqrt(2.0 * std::numbers::pi * var);
}

// One sequence's scaled forward/backward pass and accumulators.
struct FbResult {
  double log_likelihood = 0.0;
  // gamma[t*K + i], xi_sum[i*K + j] accumulated over t.
  std::vector<double> gamma;
  std::vector<double> xi_sum;
};

}  // namespace

void GaussianHmm::fit(const std::vector<std::vector<double>>& sequences,
                      const HmmConfig& config) {
  config.validate();
  const auto k = static_cast<std::size_t>(config.states);

  // Usable sequences and the pooled observation stats for initialization.
  std::vector<const std::vector<double>*> seqs;
  double sum = 0.0, sum2 = 0.0;
  std::size_t count = 0;
  for (const auto& s : sequences) {
    if (s.size() < 2) continue;
    seqs.push_back(&s);
    for (double v : s) {
      sum += v;
      sum2 += v * v;
      ++count;
    }
  }
  HDD_REQUIRE(!seqs.empty(), "no usable sequences (need length >= 2)");
  const double pooled_mean = sum / static_cast<double>(count);
  const double pooled_var = std::max(
      sum2 / static_cast<double>(count) - pooled_mean * pooled_mean,
      config.min_variance);
  const double pooled_sd = std::sqrt(pooled_var);

  // Init: means spread across the observed range, uniform-ish transitions
  // with a slight self-transition bias, small random perturbations so
  // states are not symmetric.
  Rng rng(config.seed);
  means_.resize(k);
  vars_.assign(k, pooled_var);
  for (std::size_t i = 0; i < k; ++i) {
    const double frac = k == 1 ? 0.5
                               : static_cast<double>(i) /
                                     static_cast<double>(k - 1);
    means_[i] = pooled_mean + (frac - 0.5) * 2.0 * pooled_sd +
                rng.normal(0.0, 0.05 * pooled_sd);
  }
  trans_.assign(k * k, 0.0);
  init_.assign(k, 1.0 / static_cast<double>(k));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      trans_[i * k + j] = (i == j ? 0.8 : 0.2 / std::max<double>(1.0, k - 1));
    }
  }

  double prev_mean_ll = -1e300;
  std::vector<double> alpha, beta, scale, b;
  for (int iter = 0; iter < config.baum_welch_iters; ++iter) {
    // Accumulators.
    std::vector<double> new_init(k, 1e-12);
    std::vector<double> xi(k * k, 1e-12);
    std::vector<double> gamma_sum(k, 1e-12);
    std::vector<double> mean_acc(k, 0.0), var_acc(k, 0.0);
    double total_ll = 0.0;
    std::size_t total_obs = 0;

    for (const auto* sp : seqs) {
      const auto& seq = *sp;
      const std::size_t n = seq.size();
      alpha.assign(n * k, 0.0);
      beta.assign(n * k, 0.0);
      scale.assign(n, 0.0);
      b.assign(n * k, 0.0);
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t i = 0; i < k; ++i) {
          b[t * k + i] =
              std::max(gaussian_pdf(seq[t], means_[i], vars_[i]), 1e-300);
        }
      }
      // Scaled forward.
      double norm = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        alpha[i] = init_[i] * b[i];
        norm += alpha[i];
      }
      scale[0] = std::max(norm, 1e-300);
      for (std::size_t i = 0; i < k; ++i) alpha[i] /= scale[0];
      for (std::size_t t = 1; t < n; ++t) {
        norm = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          double a = 0.0;
          for (std::size_t i = 0; i < k; ++i) {
            a += alpha[(t - 1) * k + i] * trans_[i * k + j];
          }
          a *= b[t * k + j];
          alpha[t * k + j] = a;
          norm += a;
        }
        scale[t] = std::max(norm, 1e-300);
        for (std::size_t j = 0; j < k; ++j) alpha[t * k + j] /= scale[t];
      }
      // Scaled backward.
      for (std::size_t i = 0; i < k; ++i) beta[(n - 1) * k + i] = 1.0;
      for (std::size_t t = n - 1; t-- > 0;) {
        for (std::size_t i = 0; i < k; ++i) {
          double acc = 0.0;
          for (std::size_t j = 0; j < k; ++j) {
            acc += trans_[i * k + j] * b[(t + 1) * k + j] *
                   beta[(t + 1) * k + j];
          }
          beta[t * k + i] = acc / scale[t + 1];
        }
      }
      // Accumulate statistics.
      for (std::size_t t = 0; t < n; ++t) {
        double gnorm = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          gnorm += alpha[t * k + i] * beta[t * k + i];
        }
        gnorm = std::max(gnorm, 1e-300);
        for (std::size_t i = 0; i < k; ++i) {
          const double g = alpha[t * k + i] * beta[t * k + i] / gnorm;
          if (t == 0) new_init[i] += g;
          gamma_sum[i] += g;
          mean_acc[i] += g * seq[t];
          var_acc[i] += g * seq[t] * seq[t];
        }
      }
      for (std::size_t t = 0; t + 1 < n; ++t) {
        double xnorm = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t j = 0; j < k; ++j) {
            xnorm += alpha[t * k + i] * trans_[i * k + j] *
                     b[(t + 1) * k + j] * beta[(t + 1) * k + j];
          }
        }
        xnorm = std::max(xnorm, 1e-300);
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t j = 0; j < k; ++j) {
            xi[i * k + j] += alpha[t * k + i] * trans_[i * k + j] *
                             b[(t + 1) * k + j] * beta[(t + 1) * k + j] /
                             xnorm;
          }
        }
      }
      for (std::size_t t = 0; t < n; ++t) total_ll += std::log(scale[t]);
      total_obs += n;
    }

    // M step.
    double init_norm = 0.0;
    for (double v : new_init) init_norm += v;
    for (std::size_t i = 0; i < k; ++i) init_[i] = new_init[i] / init_norm;
    for (std::size_t i = 0; i < k; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < k; ++j) row += xi[i * k + j];
      for (std::size_t j = 0; j < k; ++j) trans_[i * k + j] = xi[i * k + j] / row;
      means_[i] = mean_acc[i] / gamma_sum[i];
      vars_[i] = std::max(
          var_acc[i] / gamma_sum[i] - means_[i] * means_[i],
          config.min_variance);
    }

    const double mean_ll = total_ll / static_cast<double>(total_obs);
    if (config.tol > 0.0 && mean_ll - prev_mean_ll < config.tol) break;
    prev_mean_ll = mean_ll;
  }
}

double GaussianHmm::log_likelihood(std::span<const double> seq) const {
  HDD_REQUIRE(trained(), "log_likelihood on an untrained HMM");
  HDD_REQUIRE(!seq.empty(), "empty sequence");
  const std::size_t k = means_.size();
  std::vector<double> alpha(k), next(k);
  double ll = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    alpha[i] = init_[i] *
               std::max(gaussian_pdf(seq[0], means_[i], vars_[i]), 1e-300);
  }
  double norm = 0.0;
  for (double v : alpha) norm += v;
  norm = std::max(norm, 1e-300);
  ll += std::log(norm);
  for (double& v : alpha) v /= norm;
  for (std::size_t t = 1; t < seq.size(); ++t) {
    for (std::size_t j = 0; j < k; ++j) {
      double a = 0.0;
      for (std::size_t i = 0; i < k; ++i) a += alpha[i] * trans_[i * k + j];
      next[j] = a * std::max(gaussian_pdf(seq[t], means_[j], vars_[j]),
                             1e-300);
    }
    norm = 0.0;
    for (double v : next) norm += v;
    norm = std::max(norm, 1e-300);
    ll += std::log(norm);
    for (std::size_t j = 0; j < k; ++j) alpha[j] = next[j] / norm;
  }
  return ll;
}

double GaussianHmm::mean_log_likelihood(std::span<const double> seq) const {
  return log_likelihood(seq) / static_cast<double>(seq.size());
}

void HmmDetectorConfig::validate() const {
  HDD_REQUIRE(window_samples >= 3, "window_samples must be >= 3");
  HDD_REQUIRE(failed_window_hours > 0, "failed_window_hours must be > 0");
  HDD_REQUIRE(max_training_windows >= 10, "need some training windows");
  hmm.validate();
}

namespace {

// Non-overlapping windows of `w` consecutive values from a series.
void chop_windows(const std::vector<double>& series, std::size_t w,
                  std::vector<std::vector<double>>& out, std::size_t limit) {
  for (std::size_t start = 0; start + w <= series.size() && out.size() < limit;
       start += w) {
    out.emplace_back(series.begin() + static_cast<std::ptrdiff_t>(start),
                     series.begin() + static_cast<std::ptrdiff_t>(start + w));
  }
}

std::vector<double> attribute_series(const smart::DriveRecord& d,
                                     smart::Attr attr, std::size_t begin,
                                     std::size_t end) {
  std::vector<double> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    out.push_back(d.samples[i].value(attr));
  }
  return out;
}

}  // namespace

void HmmDetector::fit(const data::DriveDataset& dataset,
                      const data::DatasetSplit& split,
                      const HmmDetectorConfig& config) {
  config.validate();
  config_ = config;
  const auto w = static_cast<std::size_t>(config.window_samples);
  const auto limit = static_cast<std::size_t>(config.max_training_windows);

  // Good windows: from each good drive's training period.
  std::vector<std::vector<double>> good_windows;
  for (std::size_t kdx = 0; kdx < split.good_drives.size(); ++kdx) {
    if (good_windows.size() >= limit) break;
    const auto& d = dataset.drives[split.good_drives[kdx]];
    const auto series = attribute_series(d, config.attribute, 0,
                                         split.good_test_begin[kdx]);
    // One window per drive spreads coverage across the fleet.
    std::vector<std::vector<double>> one;
    chop_windows(series, w, one, 1);
    for (auto& win : one) good_windows.push_back(std::move(win));
  }

  // Failure windows: the last `failed_window_hours` of each training
  // failed drive.
  std::vector<std::vector<double>> failed_windows;
  for (std::size_t di : split.train_failed) {
    if (failed_windows.size() >= limit) break;
    const auto& d = dataset.drives[di];
    if (d.empty()) continue;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < d.samples.size(); ++i) {
      if (d.fail_hour - d.samples[i].hour <= config.failed_window_hours) {
        begin = i;
        break;
      }
    }
    const auto series =
        attribute_series(d, config.attribute, begin, d.samples.size());
    chop_windows(series, w, failed_windows, failed_windows.size() + 4);
  }

  good_.fit(good_windows, config.hmm);
  failed_.fit(failed_windows, config.hmm);
}

eval::DriveOutcome HmmDetector::detect(const smart::DriveRecord& drive,
                                       std::size_t begin) const {
  HDD_REQUIRE(trained(), "detect on an untrained HmmDetector");
  eval::DriveOutcome outcome;
  const auto w = static_cast<std::size_t>(config_.window_samples);
  const std::size_t n = drive.samples.size();
  if (begin + w > n) return outcome;

  std::vector<double> window(w);
  for (std::size_t end = begin + w; end <= n; ++end) {
    for (std::size_t i = 0; i < w; ++i) {
      window[i] = drive.samples[end - w + i].value(config_.attribute);
    }
    const double llr = failed_.mean_log_likelihood(window) -
                       good_.mean_log_likelihood(window);
    if (llr > config_.llr_margin) {
      outcome.alarmed = true;
      outcome.alarm_hour = drive.samples[end - 1].hour;
      return outcome;
    }
  }
  return outcome;
}

eval::EvalResult HmmDetector::evaluate(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split) const {
  return eval::evaluate_detector(
      dataset, split,
      [this](const smart::DriveRecord& drive, std::size_t begin) {
        return detect(drive, begin);
      });
}

}  // namespace hdd::baselines
