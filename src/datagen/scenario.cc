#include "datagen/scenario.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace turbo::datagen {

namespace {

float Clip(double v, double lo, double hi) {
  return static_cast<float>(std::min(hi, std::max(lo, v)));
}

float Clip01(double v) { return Clip(v, 0.0, 1.0); }

/// A physical handset: three hardware identities observed together.
struct Device {
  ValueId device_id;
  ValueId imei;
  ValueId imsi;
};

class ValueAllocator {
 public:
  ValueId Next() { return next_++; }
  Device NextDevice() { return Device{Next(), Next(), Next()}; }

 private:
  ValueId next_ = 1;  // 0 reserved as "no value"
};

struct RingResources {
  std::vector<Device> devices;
  std::vector<ValueId> ips;
  ValueId wifi_mac;
  std::vector<ValueId> gps_cells;
  ValueId delivery_cell;
  SimTime start_time;
  double discipline = 1.0;  // scales all sharing probabilities
};

class Generator {
 public:
  explicit Generator(const ScenarioConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed) {}

  Dataset Run();

 private:
  void AssignRoles();
  void BuildSharedPools();
  int DrawEventCount();
  ValueId MobileIp(UserId uid);
  const Device& OwnDevice(UserId uid);
  void EmitNormalSession(UserId uid, SimTime t);
  void EmitNormalUser(UserId uid);
  void EmitFraudster(UserId uid, const RingResources& ring);
  void EmitLoneFraudster(UserId uid);
  void EmitWarmupBackground(UserId uid);
  /// Popularity-skewed city cell (hot malls / dense blocks collide).
  ValueId CityCell() {
    return gps_cells_[rng_.NextZipf(gps_cells_.size(), cfg_.cell_zipf)];
  }
  void EmitSessionLogs(UserId uid, SimTime t, const Device& dev, ValueId ip,
                       ValueId wifi_mac, ValueId gps_cell);
  void EmitApplicationLogs(UserId uid, SimTime t, ValueId delivery_cell,
                           ValueId workplace);
  la::Matrix MakeProfileFeatures();

  void Log(UserId uid, BehaviorType type, ValueId v, SimTime t) {
    if (v == 0) return;
    ds_.logs.push_back({uid, type, v, t});
  }

  ScenarioConfig cfg_;
  Rng rng_;
  ValueAllocator alloc_;
  Dataset ds_;

  // Shared normal-world pools.
  std::vector<ValueId> home_ips_;       // household NAT addresses
  std::vector<ValueId> home_wifis_;     // household AP MAC (parallel)
  std::vector<Device> home_devices_;    // shared family device (parallel)
  std::vector<ValueId> public_wifi_ip_;
  std::vector<ValueId> public_wifi_mac_;
  std::vector<ValueId> workplaces_;
  std::vector<ValueId> gps_cells_;
  std::vector<Device> secondhand_pool_;
  std::vector<ValueId> delivery_buildings_;
  std::vector<Device> farm_devices_;   // current campaign's device farm
  std::vector<ValueId> farm_ips_;
  int rings_in_campaign_ = 0;
  SimTime campaign_base_ = 0;

  // Per-user placement.
  std::vector<bool> warmed_;            // fraudster with aged account
  std::vector<int> household_;          // index into home_ips_
  std::vector<ValueId> home_cell_;
  std::vector<ValueId> workplace_;      // 0 if none/unique
  std::vector<Device> personal_device_;
  std::vector<Device> second_device_;   // laptop/tablet; device_id==0 if none
  std::vector<ValueId> mobile_nat_;     // current carrier-NAT address
  std::vector<RingResources> rings_;
};

void Generator::AssignRoles() {
  const int n = cfg_.num_users;
  ds_.users.resize(n);
  int target_fraud =
      std::max(cfg_.min_ring_size,
               static_cast<int>(std::lround(n * cfg_.fraud_rate)));

  // Pick fraud uids up front so rings are contiguous groups of random ids.
  auto fraud_ids = rng_.SampleWithoutReplacement(n, target_fraud);

  for (int uid = 0; uid < n; ++uid) {
    auto& u = ds_.users[uid];
    u.uid = static_cast<UserId>(uid);
    u.registration_time =
        static_cast<SimTime>(rng_.NextDouble(0, cfg_.horizon * 0.95));
  }

  // A fraction of fraudsters operate alone; the rest form rings.
  size_t num_lone = static_cast<size_t>(
      fraud_ids.size() * cfg_.lone_fraud_fraction);
  for (size_t k = 0; k < num_lone; ++k) {
    auto& u = ds_.users[fraud_ids[k]];
    u.is_fraud = true;
    u.lone_fraud = true;
    // Identity packaging is a grey-industry (ring) service; lone wolves
    // churn-and-run on their own visibly thin identities.
    u.stealth = false;
    u.application_time = static_cast<SimTime>(
        rng_.NextDouble(7.0 * kDay, cfg_.horizon - cfg_.lease_period));
    u.registration_time =
        u.application_time -
        static_cast<SimTime>(rng_.NextExponential(5.0 * kDay));
    if (u.registration_time < 0) u.registration_time = 0;
  }

  // Partition the remaining fraudsters into rings with synchronized
  // timelines.
  size_t i = num_lone;
  while (i < fraud_ids.size()) {
    int size = static_cast<int>(
        rng_.NextInt(cfg_.min_ring_size, cfg_.max_ring_size));
    size = std::min<int>(size, static_cast<int>(fraud_ids.size() - i));
    RingResources ring;
    if (rings_in_campaign_ == 0) {
      // New campaign: fresh farm pools, fresh launch window.
      campaign_base_ = static_cast<SimTime>(
          rng_.NextDouble(7.0 * kDay, cfg_.horizon - cfg_.lease_period));
      farm_devices_.clear();
      farm_ips_.clear();
      rings_in_campaign_ = std::max(1, cfg_.rings_per_campaign);
    }
    --rings_in_campaign_;
    ring.start_time =
        campaign_base_ + static_cast<SimTime>(rng_.NextDouble(
                             0, static_cast<double>(cfg_.campaign_spread)));
    int num_devices = std::max(
        1, static_cast<int>(std::lround(size * cfg_.ring_devices_per_member)));
    for (int d = 0; d < num_devices; ++d) {
      if (rng_.NextBool(cfg_.farm_pool_fraction)) {
        if (farm_devices_.size() < 4 || rng_.NextBool(0.3)) {
          farm_devices_.push_back(alloc_.NextDevice());
        }
        ring.devices.push_back(
            farm_devices_[rng_.NextUint(farm_devices_.size())]);
      } else {
        ring.devices.push_back(alloc_.NextDevice());
      }
    }
    int num_ips = 1 + static_cast<int>(rng_.NextBool(0.4));
    for (int d = 0; d < num_ips; ++d) {
      if (rng_.NextBool(cfg_.farm_pool_fraction)) {
        if (farm_ips_.size() < 3 || rng_.NextBool(0.3)) {
          farm_ips_.push_back(alloc_.Next());
        }
        ring.ips.push_back(farm_ips_[rng_.NextUint(farm_ips_.size())]);
      } else {
        ring.ips.push_back(alloc_.Next());
      }
    }
    ring.wifi_mac = alloc_.Next();
    ring.discipline = rng_.NextDouble(cfg_.ring_discipline_min, 1.0);
    int num_cells = 1 + static_cast<int>(rng_.NextBool(0.35));
    for (int d = 0; d < num_cells; ++d) {
      // Dens sit in ordinary city blocks half the time, colliding with
      // normal users' movement cells.
      ring.gps_cells.push_back(rng_.NextBool(cfg_.ring_cell_from_city_prob)
                                   ? 0  // patched after pools exist
                                   : alloc_.Next());
    }
    ring.delivery_cell = alloc_.Next();
    int ring_id = static_cast<int>(rings_.size());

    for (int m = 0; m < size; ++m, ++i) {
      auto& u = ds_.users[fraud_ids[i]];
      u.is_fraud = true;
      u.stealth = rng_.NextBool(cfg_.stealth_fraud_fraction);
      u.ring_id = ring_id;
      u.application_time =
          ring.start_time +
          static_cast<SimTime>(rng_.NextDouble(0, cfg_.fraud_burst_span));
      u.registration_time =
          u.application_time -
          static_cast<SimTime>(rng_.NextExponential(5.0 * kDay));
      if (u.registration_time < 0) u.registration_time = 0;
    }
    rings_.push_back(std::move(ring));
  }

  // Normal users: a share are brand-new registrants (thin history at
  // audit time, like a fraudster's); the rest apply well into an
  // established usage history.
  for (auto& u : ds_.users) {
    if (u.is_fraud) continue;
    if (rng_.NextBool(cfg_.normal_new_user_fraction)) {
      u.application_time =
          u.registration_time +
          static_cast<SimTime>(rng_.NextDouble(kHour, 3.0 * kDay));
    } else {
      double latest = std::max<double>(u.registration_time + kDay,
                                       cfg_.horizon - cfg_.lease_period / 3);
      u.application_time =
          u.registration_time +
          static_cast<SimTime>(rng_.NextDouble(
              kDay, std::max<double>(2.0 * kDay,
                                     latest - u.registration_time)));
    }
    if (u.application_time > cfg_.horizon) u.application_time = cfg_.horizon;
  }

  // Warmed fraud accounts: registration moved well before the burst.
  warmed_.assign(ds_.users.size(), false);
  for (auto& u : ds_.users) {
    if (u.is_fraud && rng_.NextBool(cfg_.fraud_warmed_fraction)) {
      warmed_[u.uid] = true;
      u.registration_time = std::max<SimTime>(
          0, u.application_time -
                 static_cast<SimTime>(rng_.NextDouble(30, 200) * kDay));
    }
  }
}

void Generator::BuildSharedPools() {
  const int n = cfg_.num_users;
  int num_households = std::max(
      1, static_cast<int>(n / cfg_.household_ip_users));
  home_ips_.resize(num_households);
  home_wifis_.resize(num_households);
  home_devices_.resize(num_households);
  for (int h = 0; h < num_households; ++h) {
    home_ips_[h] = alloc_.Next();
    home_wifis_[h] = alloc_.Next();
    home_devices_[h] = alloc_.NextDevice();
  }
  public_wifi_ip_.resize(cfg_.num_public_wifi);
  public_wifi_mac_.resize(cfg_.num_public_wifi);
  for (int w = 0; w < cfg_.num_public_wifi; ++w) {
    public_wifi_ip_[w] = alloc_.Next();
    public_wifi_mac_[w] = alloc_.Next();
  }
  workplaces_.resize(cfg_.workplace_pool);
  for (auto& w : workplaces_) w = alloc_.Next();
  const int refurb = std::max(
      1, static_cast<int>(n * cfg_.secondhand_pool_per_user));
  secondhand_pool_.resize(refurb);
  for (auto& d : secondhand_pool_) d = alloc_.NextDevice();
  delivery_buildings_.resize(std::max(
      1, static_cast<int>(n / cfg_.users_per_delivery_building)));
  for (auto& b : delivery_buildings_) b = alloc_.Next();
  gps_cells_.resize(cfg_.gps_grid);
  for (auto& g : gps_cells_) g = alloc_.Next();

  household_.resize(n);
  home_cell_.resize(n);
  workplace_.resize(n);
  personal_device_.resize(n);
  second_device_.resize(n);
  mobile_nat_.resize(n);
  for (int uid = 0; uid < n; ++uid) {
    household_[uid] = static_cast<int>(rng_.NextUint(num_households));
    home_cell_[uid] = gps_cells_[rng_.NextUint(gps_cells_.size())];
    workplace_[uid] =
        (ds_.users[uid].is_fraud ||
         rng_.NextBool(cfg_.workplace_share_prob))
            ? workplaces_[rng_.NextUint(workplaces_.size())]
            : alloc_.Next();
    personal_device_[uid] =
        rng_.NextBool(cfg_.secondhand_device_fraction)
            ? secondhand_pool_[rng_.NextZipf(secondhand_pool_.size(), 0.7)]
            : alloc_.NextDevice();
    second_device_[uid] = rng_.NextBool(0.35) ? alloc_.NextDevice()
                                              : Device{0, 0, 0};
    mobile_nat_[uid] = alloc_.Next();
  }
}

void Generator::EmitSessionLogs(UserId uid, SimTime t, const Device& dev,
                                ValueId ip, ValueId wifi_mac,
                                ValueId gps_cell) {
  Log(uid, BehaviorType::kDeviceId, dev.device_id, t);
  Log(uid, BehaviorType::kImei, dev.imei, t);
  Log(uid, BehaviorType::kImsi, dev.imsi, t);
  Log(uid, BehaviorType::kIpv4, ip, t);
  Log(uid, BehaviorType::kWifiMac, wifi_mac, t);
  Log(uid, BehaviorType::kGps100, gps_cell, t);
  // Raw GPS coordinates: unique per observation (never collide), recorded
  // for completeness like the paper's Table I.
  Log(uid, BehaviorType::kGps, alloc_.Next(), t);
}

void Generator::EmitApplicationLogs(UserId uid, SimTime t,
                                    ValueId delivery_cell,
                                    ValueId workplace) {
  Log(uid, BehaviorType::kGpsDev, alloc_.Next(), t);
  Log(uid, BehaviorType::kGpsDev100, delivery_cell, t);
  Log(uid, BehaviorType::kWorkplace, workplace, t);
}

ValueId Generator::MobileIp(UserId uid) {
  // Carrier NAT addresses are sticky but re-roll on reconnects.
  if (rng_.NextBool(0.3)) mobile_nat_[uid] = alloc_.Next();
  return mobile_nat_[uid];
}

const Device& Generator::OwnDevice(UserId uid) {
  if (second_device_[uid].device_id != 0 && rng_.NextBool(0.25)) {
    return second_device_[uid];
  }
  return personal_device_[uid];
}

int Generator::DrawEventCount() {
  // Log-normal activity: median normal_events_mean, heavy right tail.
  const double mu = std::log(cfg_.normal_events_mean);
  const double lambda =
      std::exp(rng_.NextGaussian(mu, cfg_.normal_events_sigma));
  return std::max(2, rng_.NextPoisson(lambda));
}

void Generator::EmitNormalSession(UserId uid, SimTime t) {
  ValueId ip, wifi = 0;
  double r = rng_.NextDouble();
  if (r < cfg_.public_wifi_prob) {
    size_t w = rng_.NextZipf(public_wifi_ip_.size(), 1.1);
    ip = public_wifi_ip_[w];
    wifi = public_wifi_mac_[w];
  } else if (r < cfg_.public_wifi_prob + 0.62) {
    ip = home_ips_[household_[uid]];
    wifi = home_wifis_[household_[uid]];
  } else {
    ip = MobileIp(uid);
  }
  ValueId cell = rng_.NextBool(cfg_.mobility) ? CityCell() : home_cell_[uid];
  const Device& dev = rng_.NextBool(cfg_.household_device_prob)
                          ? home_devices_[household_[uid]]
                          : OwnDevice(uid);
  EmitSessionLogs(uid, t, dev, ip, wifi, cell);
  if (rng_.NextBool(cfg_.workplace_checkin_prob)) {
    Log(uid, BehaviorType::kWorkplace, workplace_[uid], t);
  }
}

void Generator::EmitNormalUser(UserId uid) {
  const auto& u = ds_.users[uid];
  const SimTime lo = std::max<SimTime>(0, u.registration_time);
  const SimTime hi =
      std::min<SimTime>(cfg_.horizon, u.application_time + cfg_.lease_period);

  // Background usage over the whole membership, thinned for short
  // histories (recent registrants simply haven't had the time).
  int events = DrawEventCount();
  const double window_days = static_cast<double>(hi - lo) / kDay;
  events = std::min<int>(events,
                         std::max(2, static_cast<int>(window_days * 8)));
  for (int e = 0; e < events; ++e) {
    SimTime t = lo + static_cast<SimTime>(
                         rng_.NextDouble(0, static_cast<double>(hi - lo)));
    EmitNormalSession(uid, t);
  }

  // Pre-application shopping burst: every applicant researches the item
  // in the days before applying, so elevated recent activity alone does
  // not mark fraud.
  int burst = 1 + rng_.NextPoisson(9.0);
  const SimTime b_lo = std::max<SimTime>(lo, u.application_time - 2 * kDay);
  const SimTime b_hi = std::min<SimTime>(hi, u.application_time + kDay);
  for (int e = 0; e < burst; ++e) {
    SimTime t =
        b_lo + static_cast<SimTime>(
                   rng_.NextDouble(0, static_cast<double>(b_hi - b_lo)));
    EmitNormalSession(uid, t);
  }
  EmitApplicationLogs(
      uid, u.application_time,
      delivery_buildings_[rng_.NextUint(delivery_buildings_.size())],
      workplace_[uid]);
}

void Generator::EmitFraudster(UserId uid, const RingResources& ring) {
  const auto& u = ds_.users[uid];
  if (warmed_[uid]) EmitWarmupBackground(uid);
  int events = std::max(4, rng_.NextPoisson(cfg_.fraud_events_mean));
  for (int e = 0; e < events; ++e) {
    // Burst: triangular-ish concentration around the application moment.
    double span = static_cast<double>(cfg_.fraud_activity_halfwidth);
    double offset = (rng_.NextDouble() - rng_.NextDouble()) * span;
    SimTime t = u.application_time + static_cast<SimTime>(offset);
    if (t < 0) t = 0;
    if (t > cfg_.horizon) t = cfg_.horizon;

    const double disc = ring.discipline;
    Device dev = rng_.NextBool(cfg_.ring_device_sharing * disc)
                     ? ring.devices[rng_.NextUint(ring.devices.size())]
                     : personal_device_[uid];
    ValueId ip, wifi = 0;
    if (rng_.NextBool(cfg_.fraud_public_wifi_prob)) {
      const size_t w = rng_.NextZipf(public_wifi_ip_.size(), 1.1);
      ip = public_wifi_ip_[w];
      wifi = public_wifi_mac_[w];
    } else if (rng_.NextBool(cfg_.ring_ip_sharing * disc)) {
      ip = ring.ips[rng_.NextUint(ring.ips.size())];
      wifi = ring.wifi_mac;
    } else {
      ip = MobileIp(uid);
    }
    ValueId cell =
        rng_.NextBool(cfg_.ring_gps_sharing * disc)
            ? ring.gps_cells[rng_.NextUint(ring.gps_cells.size())]
            : (rng_.NextBool(0.7) ? home_cell_[uid] : CityCell());
    EmitSessionLogs(uid, t, dev, ip, wifi, cell);
    // Fabricated workplace check-ins keep the cover story alive and wire
    // the fraudster to random real "coworkers" — a misleading edge type.
    if (rng_.NextBool(cfg_.workplace_checkin_prob)) {
      Log(uid, BehaviorType::kWorkplace, workplace_[uid], t);
    }
  }
  ValueId delivery =
      rng_.NextBool(cfg_.ring_delivery_sharing)
          ? ring.delivery_cell
          : delivery_buildings_[rng_.NextUint(delivery_buildings_.size())];
  EmitApplicationLogs(uid, u.application_time, delivery, workplace_[uid]);
}

void Generator::EmitWarmupBackground(UserId uid) {
  // Aged-account fraudsters carry ordinary-looking background activity
  // between registration and the burst.
  const auto& u = ds_.users[uid];
  const SimTime lo = u.registration_time;
  const SimTime hi =
      std::max<SimTime>(lo + kDay, u.application_time - 2 * kDay);
  int events = std::max(2, rng_.NextPoisson(cfg_.normal_events_mean / 3));
  for (int e = 0; e < events; ++e) {
    SimTime t = lo + static_cast<SimTime>(
                         rng_.NextDouble(0, static_cast<double>(hi - lo)));
    ValueId ip = rng_.NextBool(0.6) ? home_ips_[household_[uid]]
                                    : MobileIp(uid);
    ValueId wifi = ip == home_ips_[household_[uid]]
                       ? home_wifis_[household_[uid]]
                       : 0;
    ValueId cell = rng_.NextBool(0.8) ? home_cell_[uid] : CityCell();
    EmitSessionLogs(uid, t, personal_device_[uid], ip, wifi, cell);
  }
}

void Generator::EmitLoneFraudster(UserId uid) {
  const auto& u = ds_.users[uid];
  if (warmed_[uid]) EmitWarmupBackground(uid);
  int events = std::max(4, rng_.NextPoisson(cfg_.fraud_events_mean));
  for (int e = 0; e < events; ++e) {
    double span = static_cast<double>(cfg_.fraud_activity_halfwidth);
    double offset = (rng_.NextDouble() - rng_.NextDouble()) * span;
    SimTime t = u.application_time + static_cast<SimTime>(offset);
    if (t < 0) t = 0;
    if (t > cfg_.horizon) t = cfg_.horizon;
    ValueId ip, wifi = 0;
    if (rng_.NextBool(cfg_.fraud_public_wifi_prob)) {
      const size_t w = rng_.NextZipf(public_wifi_ip_.size(), 1.1);
      ip = public_wifi_ip_[w];
      wifi = public_wifi_mac_[w];
    } else if (rng_.NextBool(0.5)) {
      ip = home_ips_[household_[uid]];
      wifi = home_wifis_[household_[uid]];
    } else {
      ip = MobileIp(uid);
    }
    ValueId cell = rng_.NextBool(0.7) ? home_cell_[uid] : CityCell();
    EmitSessionLogs(uid, t, personal_device_[uid], ip, wifi, cell);
  }
  EmitApplicationLogs(
      uid, u.application_time,
      delivery_buildings_[rng_.NextUint(delivery_buildings_.size())],
      workplace_[uid]);
}

la::Matrix Generator::MakeProfileFeatures() {
  const int n = cfg_.num_users;
  la::Matrix x(n, kNumProfileFeatures);
  for (int uid = 0; uid < n; ++uid) {
    const auto& u = ds_.users[uid];
    // "Risky" fraudsters carry visibly bad identity/credit features;
    // stealth fraudsters (stolen identities) look like normal users on
    // those dimensions. Transaction-shaped features shift for all fraud.
    const bool risky = u.is_fraud && !u.stealth;
    auto& r = rng_;
    float age = risky ? Clip(r.NextGaussian(30, 8), 18, 70)
                      : Clip(r.NextGaussian(33, 9), 18, 70);
    float occupation_risk = risky ? Clip01(r.NextDouble(0.2, 1.0))
                                  : Clip01(r.NextDouble());
    float income = risky ? Clip(r.NextGaussian(0.9, 0.33), 0.1, 3)
                         : Clip(r.NextGaussian(1.0, 0.35), 0.1, 3);
    float credit = risky ? Clip(r.NextGaussian(605, 70), 300, 850)
                         : Clip(r.NextGaussian(650, 60), 300, 850);
    float history = risky ? Clip(r.NextGaussian(4.5, 3.0), 0, 30)
                          : Clip(r.NextGaussian(7, 4), 0, 30);
    float accounts = static_cast<float>(r.NextPoisson(risky ? 2.2 : 3.0));
    float mortgage = r.NextBool(risky ? 0.18 : 0.3) ? 1.0f : 0.0f;
    float account_age = risky
                            ? Clip(r.NextExponential(90), 0, 1000)
                            : Clip(r.NextExponential(200), 0, 1000);
    float prior_leases = static_cast<float>(r.NextPoisson(risky ? 0.6 : 1.2));
    float ontime = risky ? Clip01(r.NextGaussian(0.82, 0.18))
                         : Clip01(r.NextGaussian(0.93, 0.1));
    float id_verif = risky ? Clip01(r.NextGaussian(0.87, 0.09))
                           : Clip01(r.NextGaussian(0.92, 0.06));
    float face = risky ? Clip01(r.NextGaussian(0.89, 0.08))
                       : Clip01(r.NextGaussian(0.93, 0.06));
    float phone_age = static_cast<float>(
        r.NextExponential(risky ? 12.0 : 36.0));
    float carrier_risk = r.NextBool(risky ? 0.3 : 0.12) ? 1.0f : 0.0f;
    float addr_stability =
        static_cast<float>(r.NextExponential(risky ? 2.2 : 4.0));
    float city_tier = static_cast<float>(r.NextInt(1, 4));
    float promo = r.NextBool(risky ? 0.45 : 0.3) ? 1.0f : 0.0f;
    float night = r.NextBool(risky ? 0.3 : 0.15) ? 1.0f : 0.0f;
    float price = std::exp(static_cast<float>(
        risky ? r.NextGaussian(7.55, 0.45) : r.NextGaussian(7.3, 0.5)));
    float term = risky ? (r.NextBool(0.6) ? 12.0f : 6.0f)
                       : (r.NextBool(0.4) ? 12.0f
                                          : (r.NextBool(0.5) ? 6.0f : 3.0f));
    float rent = price / term * 1.12f;
    float price_to_income = price / (income * 30000.0f);
    float items = 1.0f + static_cast<float>(r.NextPoisson(risky ? 0.4 : 0.2));
    float express = r.NextBool(risky ? 0.45 : 0.25) ? 1.0f : 0.0f;
    float completeness = risky ? Clip01(r.NextGaussian(0.82, 0.13))
                               : Clip01(r.NextGaussian(0.9, 0.1));

    const float row[kNumProfileFeatures] = {
        age,        static_cast<float>(r.NextBool(0.55)),
        occupation_risk, income,       credit,       history,
        accounts,   mortgage,     account_age,  prior_leases,
        ontime,     id_verif,     face,         phone_age,
        carrier_risk, addr_stability, city_tier,  promo,
        night,      price,        term,         rent,
        price_to_income, items,   express,      completeness};
    for (int c = 0; c < kNumProfileFeatures; ++c) x(uid, c) = row[c];
  }
  return x;
}

Dataset Generator::Run() {
  ds_.config = cfg_;
  AssignRoles();
  BuildSharedPools();
  for (auto& ring : rings_) {
    for (auto& cell : ring.gps_cells) {
      if (cell == 0) cell = CityCell();
    }
  }
  ds_.logs.reserve(static_cast<size_t>(cfg_.num_users) *
                   static_cast<size_t>(cfg_.normal_events_mean * 7.5));
  for (int uid = 0; uid < cfg_.num_users; ++uid) {
    const auto& u = ds_.users[uid];
    if (u.is_fraud && u.ring_id >= 0) {
      EmitFraudster(static_cast<UserId>(uid), rings_[u.ring_id]);
    } else if (u.is_fraud) {
      EmitLoneFraudster(static_cast<UserId>(uid));
    } else {
      EmitNormalUser(static_cast<UserId>(uid));
    }
  }
  std::sort(ds_.logs.begin(), ds_.logs.end(),
            [](const BehaviorLog& a, const BehaviorLog& b) {
              return a.time != b.time ? a.time < b.time : a.uid < b.uid;
            });
  ds_.profile_features = MakeProfileFeatures();
  ds_.feature_names = {
      "age", "gender", "occupation_risk", "income_level", "credit_score",
      "credit_history_len", "num_credit_accounts", "has_mortgage",
      "account_age_days", "num_prior_leases", "prior_ontime_ratio",
      "id_verification_score", "face_match_score", "phone_age_months",
      "phone_carrier_risk", "address_stability_years", "city_tier",
      "app_channel_promo", "night_application", "item_price",
      "lease_term_months", "rent_amount", "price_to_income",
      "num_items", "express_shipping", "profile_completeness"};
  TURBO_CHECK_EQ(ds_.feature_names.size(),
                 static_cast<size_t>(kNumProfileFeatures));
  return std::move(ds_);
}

}  // namespace

ScenarioConfig ScenarioConfig::D1Like(int num_users) {
  ScenarioConfig cfg;
  cfg.num_users = num_users;
  cfg.fraud_rate = 0.014;
  return cfg;
}

ScenarioConfig ScenarioConfig::D2Like(int num_users) {
  ScenarioConfig cfg;
  cfg.seed = 20210416;
  cfg.num_users = num_users;
  cfg.fraud_rate = 0.65;
  // Rejected applications never reach a lease, so their log history is
  // shorter on average.
  cfg.normal_events_mean = 30.0;
  cfg.fraud_events_mean = 30.0;
  return cfg;
}

int Dataset::NumFraud() const {
  int n = 0;
  for (const auto& u : users) n += u.is_fraud;
  return n;
}

std::vector<int> Dataset::Labels() const {
  std::vector<int> y(users.size());
  for (size_t i = 0; i < users.size(); ++i) y[i] = users[i].is_fraud ? 1 : 0;
  return y;
}

Dataset GenerateScenario(const ScenarioConfig& config) {
  TURBO_CHECK_GT(config.num_users, 0);
  TURBO_CHECK_GT(config.horizon, 0);
  // Fraud launch windows are drawn from [7 d, horizon - lease_period];
  // a narrower span collapses every fraud application onto days 7-8.
  TURBO_CHECK_GT(config.horizon - config.lease_period, 8 * kDay);
  TURBO_CHECK_GE(config.fraud_rate, 0.0);
  TURBO_CHECK_LE(config.fraud_rate, 1.0);
  TURBO_CHECK_LE(config.min_ring_size, config.max_ring_size);
  return Generator(config).Run();
}

}  // namespace turbo::datagen
