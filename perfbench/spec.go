package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the single source of every workload's fixed parameters; the
// program reads rates, mixes and configs from it and never recomputes them.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	SetupRepeats int                        `json:"setup_repeats"`
	Gateway      map[string]gatewayWorkload `json:"gateway_workloads"`
	City         map[string]cityWorkload    `json:"city_workloads"`
	PerLayer     []layerMetric              `json:"per_layer"`
}

type gatewayWorkload struct {
	RateFPS             float64    `json:"rate_fps"`
	SFs                 []int      `json:"sfs"`
	SFWeights           []float64  `json:"sf_weights"`
	UsersWeights        []float64  `json:"users_weights"`
	PayloadLen          int        `json:"payload_len"`
	SNRdB               [2]float64 `json:"snr_db"`
	InterfererShare     float64    `json:"interferer_share"`
	InterfererIntensity float64    `json:"interferer_intensity"`
	CorpusFrames        int        `json:"corpus_frames"`
	ReplayFrames        int        `json:"replay_frames"`
	LagTailBoundMS      float64    `json:"lag_tail_bound_ms"`
	Gateway             struct {
		Queue             int      `json:"queue"`
		Policy            string   `json:"policy"`
		MaxAttempts       int      `json:"max_attempts"`
		BackoffMS         float64  `json:"backoff_ms"`
		BreakerThreshold  int      `json:"breaker_threshold"`
		BreakerCooldown   int      `json:"breaker_cooldown"`
		Ladder            []string `json:"ladder"`
		Fsync             bool     `json:"fsync"`
		AdmissionTargetMS float64  `json:"admission_target_ms"`
		ConnTimeoutS      float64  `json:"conn_timeout_s"`
		MaxConns          int      `json:"max_conns"`
		Seed              uint64   `json:"seed"`
	} `json:"gateway"`
}

type cityWorkload struct {
	Nodes          int     `json:"nodes"`
	Gateways       int     `json:"gateways"`
	Slots          int     `json:"slots"`
	ArrivalPerSlot float64 `json:"arrival_per_slot"`
	Table          struct {
		MaxUsers          int     `json:"max_users"`
		BaseSuccess       float64 `json:"base_success"`
		ResolvableOffsets float64 `json:"resolvable_offsets"`
		MaxConcurrent     int     `json:"max_concurrent"`
	} `json:"receiver_table"`
	CaptureMarginDB float64 `json:"capture_margin_db"`
	Foreign         []struct {
		Nodes          int     `json:"nodes"`
		ArrivalPerSlot float64 `json:"arrival_per_slot"`
	} `json:"foreign"`
	Shards int `json:"shards"`
}

type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}
