#include "dynamodb/table.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace flower::dynamodb {

namespace {
constexpr const char* kNamespace = "Flower/DynamoDB";

double WcuForSize(int32_t size_bytes) {
  return std::max(1.0, std::ceil(static_cast<double>(size_bytes) /
                                 static_cast<double>(kDynamoWcuBytes)));
}
double RcuForSize(int32_t size_bytes) {
  return std::max(1.0, std::ceil(static_cast<double>(size_bytes) /
                                 static_cast<double>(kDynamoRcuBytes)));
}
}  // namespace

Table::Table(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
             TableConfig config)
    : sim_(sim), metrics_(metrics), config_(std::move(config)) {
  wcu_ = std::clamp(config_.initial_wcu, config_.min_wcu, config_.max_wcu);
  rcu_ = std::clamp(config_.initial_rcu, config_.min_rcu, config_.max_rcu);
  pending_wcu_ = wcu_;
  pending_rcu_ = rcu_;
  write_tokens_ = wcu_;  // Start with one second of capacity banked.
  read_tokens_ = rcu_;
  last_refill_ = sim_->Now();
  period_start_ = sim_->Now();
  current_day_ = static_cast<int64_t>(sim_->Now() / kDay);
  if (metrics_ != nullptr) {
    Status st = sim_->SchedulePeriodic(
        sim_->Now() + config_.metrics_period_sec, config_.metrics_period_sec,
        [this] {
          PublishMetrics();
          return true;
        });
    FLOWER_CHECK(st.ok()) << st.ToString();
  }
}

void Table::RefillTokens(SimTime now) {
  double dt = now - last_refill_;
  if (dt <= 0.0) return;
  write_tokens_ =
      std::min(wcu_ * config_.burst_window_sec, write_tokens_ + dt * wcu_);
  read_tokens_ =
      std::min(rcu_ * config_.burst_window_sec, read_tokens_ + dt * rcu_);
  last_refill_ = now;
}

Status Table::ChargeWrite(int32_t size_bytes) {
  RefillTokens(sim_->Now());
  double cost = WcuForSize(size_bytes);
  if (write_tokens_ < cost) {
    ++total_throttled_writes_;
    return Status::Throttled("write throttled");
  }
  write_tokens_ -= cost;
  period_consumed_wcu_ += cost;
  ++total_writes_;
  return Status::OK();
}

Table::ItemIt Table::LowerBound(int64_t key) {
  return std::lower_bound(
      items_.begin(), items_.end(), key,
      [](const std::pair<int64_t, double>& item, int64_t k) {
        return item.first < k;
      });
}

double& Table::Item(int64_t key) {
  ItemIt it = LowerBound(key);
  if (it == items_.end() || it->first != key) {
    it = items_.insert(it, {key, 0.0});
  }
  return it->second;
}

Status Table::PutItem(int64_t key, double value, int32_t size_bytes) {
  if (size_bytes <= 0) {
    return Status::InvalidArgument("PutItem: non-positive item size");
  }
  FLOWER_RETURN_NOT_OK(ChargeWrite(size_bytes));
  Item(key) = value;
  return Status::OK();
}

Result<double> Table::GetItem(int64_t key, int32_t size_bytes) {
  if (size_bytes <= 0) {
    return Status::InvalidArgument("GetItem: non-positive item size");
  }
  RefillTokens(sim_->Now());
  double cost = RcuForSize(size_bytes);
  if (read_tokens_ < cost) {
    ++total_throttled_reads_;
    return Status::Throttled("read throttled");
  }
  read_tokens_ -= cost;
  ItemIt it = LowerBound(key);
  if (it == items_.end() || it->first != key) {
    return Status::NotFound("no such item");
  }
  return it->second;
}

Result<double> Table::UpdateItemAdd(int64_t key, double delta,
                                    int32_t size_bytes) {
  if (size_bytes <= 0) {
    return Status::InvalidArgument("UpdateItemAdd: non-positive item size");
  }
  FLOWER_RETURN_NOT_OK(ChargeWrite(size_bytes));
  return Item(key) += delta;
}

Status Table::DeleteItem(int64_t key, int32_t size_bytes) {
  if (size_bytes <= 0) {
    return Status::InvalidArgument("DeleteItem: non-positive item size");
  }
  FLOWER_RETURN_NOT_OK(ChargeWrite(size_bytes));
  ItemIt it = LowerBound(key);
  if (it != items_.end() && it->first == key) items_.erase(it);
  return Status::OK();
}

Status Table::SetProvisionedThroughput(double wcu, double rcu) {
  if (wcu < config_.min_wcu || wcu > config_.max_wcu ||
      rcu < config_.min_rcu || rcu > config_.max_rcu) {
    return Status::InvalidArgument(
        "SetProvisionedThroughput: capacity outside configured bounds");
  }
  SimTime now = sim_->Now();
  int64_t day = static_cast<int64_t>(now / kDay);
  if (day != current_day_) {
    current_day_ = day;
    decreases_today_ = 0;
  }
  bool is_decrease = wcu < pending_wcu_ || rcu < pending_rcu_;
  if (is_decrease && config_.max_decreases_per_day > 0 &&
      decreases_today_ >= config_.max_decreases_per_day) {
    return Status::ResourceExhausted(
        "DynamoDB '" + config_.name +
        "': daily provisioned-throughput decrease limit reached");
  }
  if (is_decrease) ++decreases_today_;
  pending_wcu_ = wcu;
  pending_rcu_ = rcu;
  change_in_flight_ = true;
  uint64_t epoch = ++change_epoch_;
  return sim_->ScheduleAfter(config_.provisioning_delay_sec, [this, epoch] {
    if (epoch != change_epoch_) return;  // Superseded.
    RefillTokens(sim_->Now());
    wcu_ = pending_wcu_;
    rcu_ = pending_rcu_;
    // Cap banked burst tokens to the new capacity's window.
    write_tokens_ = std::min(write_tokens_, wcu_ * config_.burst_window_sec);
    read_tokens_ = std::min(read_tokens_, rcu_ * config_.burst_window_sec);
    change_in_flight_ = false;
  });
}

double Table::CurrentWriteUtilizationPct() const {
  SimTime now = sim_->Now();
  double elapsed = now - period_start_;
  if (elapsed <= 0.0 || wcu_ <= 0.0) return 0.0;
  return 100.0 * (period_consumed_wcu_ / elapsed) / wcu_;
}

void Table::PublishMetrics() {
  SimTime now = sim_->Now();
  double elapsed = now - period_start_;
  auto put = [&](const char* name, double v) {
    Status st = metrics_->Put({kNamespace, name, config_.name}, now, v);
    FLOWER_CHECK(st.ok()) << st.ToString();
  };
  double consumed_w =
      elapsed > 0.0 ? period_consumed_wcu_ / elapsed : 0.0;
  put("ConsumedWriteCapacityUnits", consumed_w);
  put("ProvisionedWriteCapacityUnits", wcu_);
  put("WriteUtilization", wcu_ > 0.0 ? 100.0 * consumed_w / wcu_ : 0.0);
  period_consumed_wcu_ = 0.0;
  period_start_ = now;
}

}  // namespace flower::dynamodb
