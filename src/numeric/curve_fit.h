// Nonlinear least squares: Levenberg–Marquardt with a numeric Jacobian.
//
// Used to re-derive the paper's fitted coefficients — eq. (9)'s
// {2.9, 1.35, 1.48} and the repeater error factors' {0.16, 0.24, 0.18, 0.3} —
// from data generated by our own simulator/optimizer, closing the loop on the
// reproduction (see core/fitting and bench/paper_claims).
#pragma once

#include <functional>
#include <vector>

namespace rlcsim::numeric {

// Model callable: y = model(x, params).
using FitModel = std::function<double(double, const std::vector<double>&)>;

struct FitOptions {
  int max_iterations = 200;
  double gradient_tolerance = 1e-12;   // stop when max |J^T r| is below this
  double step_tolerance = 1e-12;       // stop when the parameter step is tiny
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.25;
  // Relative perturbation for the forward-difference Jacobian.
  double jacobian_epsilon = 1e-7;
};

struct FitResult {
  std::vector<double> params;
  double rss = 0.0;        // residual sum of squares at the solution
  int iterations = 0;
  bool converged = false;
};

// Fits `model` to (x, y) pairs starting from `initial`. Optional `weights`
// multiply the residuals (same length as x). Throws std::invalid_argument on
// size mismatches or empty data.
FitResult fit_levenberg_marquardt(const FitModel& model, const std::vector<double>& x,
                                  const std::vector<double>& y,
                                  const std::vector<double>& initial,
                                  const FitOptions& options = {},
                                  const std::vector<double>& weights = {});

}  // namespace rlcsim::numeric
