package fleet

import (
	"mufuzz/internal/conformance"
	"mufuzz/internal/service"
)

// ReferenceTranscript records the uninterrupted single-node run of a
// campaign spec — the baseline a fleet-executed campaign's assembled
// transcript must be byte-identical to, no matter how many workers it
// migrated across. The spec is canonicalized exactly as the coordinator
// canonicalizes it at submit, so `conform -mode fleet-ref`, the fleet
// tests, and CI's kill-one-worker smoke all compare against the same
// bytes.
//
// Deprecated: defaultWorkers is ignored, like service.CampaignSpec.Workers;
// the parameter stays only because the benchmark harness in bench/ passes
// it.
func ReferenceTranscript(spec service.CampaignSpec, defaultIterations, defaultWorkers int) (*conformance.Run, error) {
	canon, err := CanonicalizeSpec(spec, defaultIterations)
	if err != nil {
		return nil, err
	}
	target, err := service.ResolveTarget(canon)
	if err != nil {
		return nil, err
	}
	worldOpts, _, err := service.ResolveWorld(canon, target)
	if err != nil {
		return nil, err
	}
	opts, err := service.SpecOptions(canon, 0, 0)
	if err != nil {
		return nil, err
	}
	opts.World = worldOpts
	name := canon.Name
	if name == "" {
		name = target.Name()
	}
	return conformance.RecordTargetCampaign(name, target, opts), nil
}
