package serve

import (
	"errors"
	"fmt"
	"net/http"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/registry"
)

// modelState is the serving layer's per-model companion: everything
// that must swap atomically with the model itself. The validator is the
// model's fitted schema; the drift trackers (input histograms, score
// window, delayed-label quality) describe traffic as seen by this
// model version, so comparing a new model against stale drift state is
// impossible by construction. It is attached to the registry.Model via
// SetState before publication and retrieved by every scoring path.
type modelState struct {
	model  *registry.Model
	scorer core.Scorer
	val    *Validator
	drift  *driftState
	shadow shadowStats // canary comparison, used while the model is shadow
}

// newModelState builds and attaches the serving state for m.
func newModelState(m *registry.Model, cfg Config) *modelState {
	sc := m.Scorer()
	st := &modelState{
		model:  m,
		scorer: sc,
		val:    NewValidator(sc.Codebook(), cfg.RejectMissing, cfg.RejectOutOfRange),
		drift:  newDriftState(sc.DriftRef(), m.Info().Version, cfg.Logger),
	}
	m.SetState(st)
	return st
}

// version is the model's registry version — the model_version label.
func (st *modelState) version() uint64 { return st.model.Info().Version }

// release drops the scoring reference held by acquireActive.
func (st *modelState) release() { st.model.Release() }

// adopt registers sc in the registry and builds its serving state. The
// returned model is ready to Promote or SetShadow.
func (s *Server) adopt(sc core.Scorer, name, path, sha string) *registry.Model {
	m := s.reg.Adopt(sc, name, path, sha)
	newModelState(m, s.cfg)
	return m
}

// activeState returns the active model's serving state without holding
// a scoring reference — for identity reads, validation, and drift
// reporting (immutable or internally synchronized data), not for
// scoring. New promotes the boot model before serving starts, so the
// active slot is never empty.
func (s *Server) activeState() *modelState {
	return s.reg.Active().State().(*modelState)
}

// acquireActive returns the active state with a scoring reference
// held; callers must release() after their last scorer use.
func (s *Server) acquireActive() *modelState {
	return s.reg.AcquireActive().State().(*modelState)
}

// checkSchema verifies that sc is hot-swappable with the active model:
// identical feature schemas, position by position. Clients send features
// positionally against the schema they were built for, so a swap must
// not change it.
func (s *Server) checkSchema(sc core.Scorer) error {
	cur := s.activeState().scorer.Specs()
	next := sc.Specs()
	if len(next) != len(cur) {
		return fmt.Errorf("serve: schema mismatch: new model has %d features, active model %d", len(next), len(cur))
	}
	for i := range cur {
		if next[i] != cur[i] {
			return fmt.Errorf("serve: schema mismatch at feature %d: new model %s/%v, active model %s/%v",
				i, next[i].Name, next[i].Kind, cur[i].Name, cur[i].Kind)
		}
	}
	return nil
}

// AdoptAndPromote registers an in-process scorer (no backing file) and
// promotes it to active after the schema check. The replaced model
// retires gracefully: it finishes its in-flight requests, then drains.
func (s *Server) AdoptAndPromote(sc core.Scorer, name string) (registry.Info, error) {
	if err := s.checkSchema(sc); err != nil {
		return registry.Info{}, err
	}
	m := s.adopt(sc, name, "", "")
	s.promote(m)
	return m.Info(), nil
}

// LoadAndPromote loads a model artifact from path and promotes it to
// active. name defaults to path.
func (s *Server) LoadAndPromote(path, name string) (registry.Info, error) {
	m, err := s.load(path, name)
	if err != nil {
		return registry.Info{}, err
	}
	s.promote(m)
	return m.Info(), nil
}

// LoadShadow loads a model artifact from path and installs it as the
// shadow model, replacing any previous shadow. name defaults to path.
func (s *Server) LoadShadow(path, name string) (registry.Info, error) {
	m, err := s.load(path, name)
	if err != nil {
		return registry.Info{}, err
	}
	s.reg.SetShadow(m)
	info := m.Info()
	s.logger.Info("shadow model installed",
		"model", info.Name, "model_version", info.Version, "sha256", info.SHA256)
	return info, nil
}

// AdoptShadow installs an in-process scorer as the shadow model.
func (s *Server) AdoptShadow(sc core.Scorer, name string) (registry.Info, error) {
	if err := s.checkSchema(sc); err != nil {
		return registry.Info{}, err
	}
	m := s.adopt(sc, name, "", "")
	s.reg.SetShadow(m)
	return m.Info(), nil
}

// ReloadModel re-reads the active model's backing artifact and promotes
// the result — the SIGHUP handler. It fails for in-process models
// (-demo), which have no file to reload.
func (s *Server) ReloadModel() (registry.Info, error) {
	info := s.reg.Active().Info()
	if info.Path == "" {
		return registry.Info{}, errors.New("serve: active model has no backing file to reload")
	}
	return s.LoadAndPromote(info.Path, info.Name)
}

// Registry exposes the model registry (for introspection and tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// load reads and schema-checks an artifact, returning an adopted,
// unpublished model. The chaos seam can fail the read — a load failure,
// injected or real, must leave the serving state untouched (the current
// model keeps serving; the chaos regression suite pins this).
func (s *Server) load(path, name string) (*registry.Model, error) {
	if err := s.cfg.Chaos.Inject(chaos.PointLoad); err != nil {
		return nil, err
	}
	dep, sha, err := registry.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := s.checkSchema(dep); err != nil {
		return nil, err
	}
	if name == "" {
		name = path
	}
	return s.adopt(dep, name, path, sha), nil
}

// promote publishes m as active and logs and audits the swap.
func (s *Server) promote(m *registry.Model) {
	old := s.reg.Promote(m)
	info := m.Info()
	attrs := []any{
		"model", info.Name, "model_version", info.Version, "sha256", info.SHA256,
	}
	var replaced uint64
	if old != nil {
		replaced = old.Info().Version
		attrs = append(attrs, "replaced_version", replaced)
	}
	s.logger.Info("model promoted", attrs...)
	s.auditSwap(info, replaced)
}

// modelsResponse is the GET /v1/models body: the live publication state
// plus the full adoption history.
type modelsResponse struct {
	Active registry.Info   `json:"active"`
	Shadow *registry.Info  `json:"shadow,omitempty"`
	Swaps  uint64          `json:"swaps"`
	Loaded []registry.Info `json:"loaded"`
}

// handleModels reports the registry: active and shadow identities,
// swap count, and every model adopted since boot.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{
		Active: s.reg.Active().Info(),
		Swaps:  s.reg.Swaps(),
		Loaded: s.reg.Loaded(),
	}
	if sh := s.reg.Shadow(); sh != nil {
		info := sh.Info()
		resp.Shadow = &info
	}
	writeJSON(w, http.StatusOK, resp)
}

// loadModelRequest is the POST /admin/models/load body.
type loadModelRequest struct {
	// Path is the model artifact to load (required).
	Path string `json:"path"`
	// Name overrides the reported model name (default: Path).
	Name string `json:"name,omitempty"`
	// Shadow installs the model as shadow instead of promoting it.
	Shadow bool `json:"shadow,omitempty"`
}

// loadModelResponse is the body of a successful POST /admin/models/load.
type loadModelResponse struct {
	Role  string        `json:"role"` // "active" | "shadow"
	Model registry.Info `json:"model"`
}

// handleLoadModel loads a model artifact into the registry: by default
// it promotes (zero-downtime swap), with "shadow": true it installs the
// canary. A load or schema failure leaves the serving state untouched.
func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req loadModelRequest
	if !s.decode(w, r, nil, &req) {
		return
	}
	if req.Path == "" {
		s.writeError(w, nil, http.StatusBadRequest, "missing path", nil, 0)
		return
	}
	var (
		role = "active"
		info registry.Info
		err  error
	)
	if req.Shadow {
		role = "shadow"
		info, err = s.LoadShadow(req.Path, req.Name)
	} else {
		info, err = s.LoadAndPromote(req.Path, req.Name)
	}
	if err != nil {
		s.writeError(w, nil, http.StatusUnprocessableEntity, err.Error(), nil, 0)
		return
	}
	writeJSON(w, http.StatusOK, loadModelResponse{Role: role, Model: info})
}
